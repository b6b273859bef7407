// Snapshot writes the cache's completed entries as (key, source)
// records behind the shared snapcodec framing. Nothing reads it back:
// the daemon's checkpoint holds no cache section (the fleet's homes
// table and the auditor's store persist sources, and their readers
// refill the cache with Warm). It is kept only for perfbench's
// snapshot rung, which measures it.

package extractcache

import (
	"fmt"
	"io"

	"homeguard/internal/snapcodec"
)

// Snapshot format identity. Version 1 held each entry's encoded result.
const (
	snapshotMagic   = "HGXCSNP\x00"
	snapshotVersion = 2
)

// Snapshot writes every completed cache entry (results and cached
// errors alike) to w as one record each, the 32-byte key followed by
// the entry's source, returning the number of entries written.
// In-flight extractions are skipped, so a snapshot never blocks on a
// running symexec, and the entry set is captured under the lock, then
// written outside it.
func (c *Cache) Snapshot(w io.Writer) (int, error) {
	type kv struct {
		k Key
		e *entry
	}
	c.mu.Lock()
	done := make([]kv, 0, len(c.entries))
	for k, e := range c.entries {
		select {
		case <-e.done:
			done = append(done, kv{k, e})
		default: // in flight
		}
	}
	c.mu.Unlock()

	sw, err := snapcodec.NewWriter(w, snapshotMagic, snapshotVersion)
	if err != nil {
		return 0, fmt.Errorf("extractcache: snapshot: %w", err)
	}
	var rec []byte
	for _, it := range done {
		rec = append(append(rec[:0], it.k[:]...), it.e.src...)
		sw.Record(rec) // a failed Record is sticky: Close reports it
	}
	if err := sw.Close(); err != nil {
		return 0, fmt.Errorf("extractcache: snapshot: %w", err)
	}
	return len(done), nil
}
