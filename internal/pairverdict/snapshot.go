package pairverdict

import (
	"fmt"
	"io"

	"homeguard/internal/detect"
	"homeguard/internal/snapcodec"
)

// Snapshot serializes every completed verdict through the shared
// snapcodec framing; failed (panicked) entries are never snapshotted.
// The daemon's checkpoint does not hold this section (a restore refills
// the cache by replaying the homes' installs, which costs less than
// decoding every verdict), and nothing reads it back: it is kept for
// perfbench's snapshot rung, which measures it.

const (
	snapshotMagic   = "HGPVSNP\x00"
	snapshotVersion = 1
)

// Snapshot writes every completed verdict to w in the versioned,
// checksummed snapshot format, returning the number of entries written.
// In-flight computations are skipped and the entry set is captured under
// the lock, then serialized outside it (cached verdicts are immutable),
// so concurrent Detect traffic proceeds during the write.
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
			if !e.failed {
				done = append(done, kv{k, e})
			}
		default: // in flight
		}
	}
	c.mu.Unlock()

	sw, err := snapcodec.NewWriter(w, snapshotMagic, snapshotVersion)
	if err != nil {
		return 0, fmt.Errorf("pairverdict: snapshot: %w", err)
	}
	for _, it := range done {
		payload, err := detect.MarshalThreats(it.e.threats)
		if err != nil {
			return 0, fmt.Errorf("pairverdict: snapshot entry: %w", err)
		}
		rec := make([]byte, 0, len(it.k)+len(payload))
		rec = append(rec, it.k[:]...)
		rec = append(rec, payload...)
		if err := sw.Record(rec); err != nil {
			return 0, fmt.Errorf("pairverdict: snapshot: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return 0, fmt.Errorf("pairverdict: snapshot: %w", err)
	}
	return len(done), nil
}
