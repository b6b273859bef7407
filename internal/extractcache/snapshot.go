// Persistence for the extraction cache. The fleet's homes layout
// persists each installed app as one entry record (EncodeEntry), and a
// checkpoint restore decodes it (DecodeEntry) and files it in the cache
// (Merge). Snapshot writes every completed entry (results and cached
// errors) in the same record format behind the shared snapcodec
// framing; the daemon's checkpoint does not hold that section, and it
// is kept for perfbench's snapshot rung, which measures it.

package extractcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"homeguard/internal/rule"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
)

// Snapshot format identity. Bump the version on any payload change (an
// entry-record change also changes the fleet's homes layout).
const (
	snapshotMagic   = "HGXCSNP\x00"
	snapshotVersion = 1
)

// ErrSnapshotCorrupt is re-exported so callers can match decode failures
// without importing the codec package.
var ErrSnapshotCorrupt = snapcodec.ErrCorrupt

// inputDeclJSON mirrors symexec.InputDecl with the Default term in the
// tagged wire format (a Term behind an interface does not round-trip
// through plain encoding/json).
type inputDeclJSON struct {
	Name       string          `json:"name"`
	Type       string          `json:"type,omitempty"`
	Capability string          `json:"capability,omitempty"`
	Multiple   bool            `json:"multiple,omitempty"`
	Required   bool            `json:"required,omitempty"`
	Title      string          `json:"title,omitempty"`
	Options    []string        `json:"options,omitempty"`
	Default    json.RawMessage `json:"default,omitempty"`
}

// resultJSON is the wire form of one *symexec.Result (an AppInfo, its
// rule set and the extraction diagnostics). It is embedded in entryJSON,
// so encoding/json promotes its fields into the entry payload — the wire
// format is byte-identical to when these fields lived on entryJSON
// directly, which is why the split needs no snapshot version bump.
type resultJSON struct {
	HasResult   bool            `json:"hasResult,omitempty"`
	Name        string          `json:"name,omitempty"`
	Namespace   string          `json:"namespace,omitempty"`
	Description string          `json:"description,omitempty"`
	Category    string          `json:"category,omitempty"`
	Inputs      []inputDeclJSON `json:"inputs,omitempty"`
	Rules       json.RawMessage `json:"rules,omitempty"`
	Warnings    []string        `json:"warnings,omitempty"`
	Paths       int             `json:"paths,omitempty"`
}

// entryJSON is one snapshot record's payload (the 32-byte key precedes it
// in the raw record).
type entryJSON struct {
	Err string `json:"err,omitempty"`
	resultJSON
}

func encodeResult(res *symexec.Result) (resultJSON, error) {
	e := resultJSON{HasResult: true}
	e.Name = res.App.Name
	e.Namespace = res.App.Namespace
	e.Description = res.App.Description
	e.Category = res.App.Category
	e.Warnings = res.Warnings
	e.Paths = res.Paths
	for i := range res.App.Inputs {
		in := &res.App.Inputs[i]
		dj := inputDeclJSON{
			Name: in.Name, Type: in.Type, Capability: in.Capability,
			Multiple: in.Multiple, Required: in.Required, Title: in.Title,
			Options: in.Options,
		}
		if in.Default != nil {
			b, err := rule.MarshalTerm(in.Default)
			if err != nil {
				return resultJSON{}, err
			}
			dj.Default = b
		}
		e.Inputs = append(e.Inputs, dj)
	}
	if res.Rules != nil {
		b, err := rule.MarshalRuleSet(res.Rules)
		if err != nil {
			return resultJSON{}, err
		}
		e.Rules = b
	}
	return e, nil
}

func decodeResult(e *resultJSON) (*symexec.Result, error) {
	if !e.HasResult {
		return nil, nil
	}
	res := &symexec.Result{
		App: symexec.AppInfo{
			Name: e.Name, Namespace: e.Namespace,
			Description: e.Description, Category: e.Category,
		},
		Warnings: e.Warnings,
		Paths:    e.Paths,
	}
	for _, dj := range e.Inputs {
		in := symexec.InputDecl{
			Name: dj.Name, Type: dj.Type, Capability: dj.Capability,
			Multiple: dj.Multiple, Required: dj.Required, Title: dj.Title,
			Options: dj.Options,
		}
		if len(dj.Default) > 0 {
			t, err := rule.UnmarshalTerm(dj.Default)
			if err != nil {
				return nil, fmt.Errorf("%w: input default: %v", ErrSnapshotCorrupt, err)
			}
			in.Default = t
		}
		res.App.Inputs = append(res.App.Inputs, in)
	}
	if len(e.Rules) > 0 {
		rs, err := rule.UnmarshalRuleSet(e.Rules)
		if err != nil {
			return nil, fmt.Errorf("%w: rule set: %v", ErrSnapshotCorrupt, err)
		}
		res.Rules = rs
	}
	// Extraction always yields a rule set, and detection dereferences it.
	if res.Rules == nil {
		return nil, fmt.Errorf("%w: result without a rule set", ErrSnapshotCorrupt)
	}
	return res, nil
}

// MarshalResult serializes one extraction result in the snapshot wire
// form, for the auditor's store section and WAL records, which persist
// results outside the extraction cache. res must be non-nil.
func MarshalResult(res *symexec.Result) ([]byte, error) {
	e, err := encodeResult(res)
	if err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// UnmarshalResult reverses MarshalResult.
func UnmarshalResult(b []byte) (*symexec.Result, error) {
	var e resultJSON
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%w: result payload: %v", ErrSnapshotCorrupt, err)
	}
	res, err := decodeResult(&e)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("%w: result payload without a result", ErrSnapshotCorrupt)
	}
	return res, nil
}

// EncodeEntry serializes one cache entry as a snapshot record: the
// 32-byte key, then the entry JSON.
func EncodeEntry(k Key, res *symexec.Result, cacheErr error) ([]byte, error) {
	e := entryJSON{}
	if cacheErr != nil {
		e.Err = cacheErr.Error()
	}
	if res != nil {
		rj, err := encodeResult(res)
		if err != nil {
			return nil, err
		}
		e.resultJSON = rj
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 0, len(k)+len(payload))
	rec = append(rec, k[:]...)
	rec = append(rec, payload...)
	return rec, nil
}

// DecodeEntry reverses EncodeEntry: the key, the result (or nil), the
// cached error, and a decode error.
func DecodeEntry(rec []byte) (Key, *symexec.Result, error, error) {
	var k Key
	if len(rec) < len(k) {
		return k, nil, nil, fmt.Errorf("%w: record shorter than a key", ErrSnapshotCorrupt)
	}
	copy(k[:], rec)
	var e entryJSON
	if err := json.Unmarshal(rec[len(k):], &e); err != nil {
		return k, nil, nil, fmt.Errorf("%w: entry payload: %v", ErrSnapshotCorrupt, err)
	}
	var cacheErr error
	if e.Err != "" {
		cacheErr = errors.New(e.Err)
	}
	res, err := decodeResult(&e.resultJSON)
	if err != nil {
		return k, nil, nil, err
	}
	return k, res, cacheErr, nil
}

// Snapshot writes every completed cache entry (results and cached
// errors) to w in the versioned, checksummed snapshot format, returning
// the number of entries written. In-flight extractions are skipped — a
// snapshot never blocks on a running symexec — and the entry set is
// captured under the lock, then serialized outside it (cached results are
// immutable), so concurrent Extract traffic proceeds during the write.
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
	for _, it := range done {
		rec, err := EncodeEntry(it.k, it.e.res, it.e.err)
		if err != nil {
			return 0, fmt.Errorf("extractcache: snapshot entry: %w", err)
		}
		if err := sw.Record(rec); err != nil {
			return 0, fmt.Errorf("extractcache: snapshot: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return 0, fmt.Errorf("extractcache: snapshot: %w", err)
	}
	return len(done), nil
}

// Merge inserts a restored entry for k unless k is present (completed
// or in flight), and returns the result the cache serves for k — the
// cached one when k has completed with a result, else res — and whether
// it inserted. It never blocks on an in-flight entry and counts no lookup.
func (c *Cache) Merge(k Key, res *symexec.Result, cacheErr error) (canonical *symexec.Result, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		if got := c.cachedLocked(k); got != nil {
			res = got
		}
		return res, false
	}
	e := &entry{done: make(chan struct{}), res: res, err: cacheErr}
	close(e.done) // a restored entry is complete: waiters never block
	c.entries[k] = e
	c.evictOverflowLocked()
	return res, true
}

// Cached returns the result k has completed with, or nil when k is
// absent, in flight or a cached error. Like Merge, it counts no lookup.
func (c *Cache) Cached(k Key) *symexec.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cachedLocked(k)
}

func (c *Cache) cachedLocked(k Key) *symexec.Result {
	if e, ok := c.entries[k]; ok {
		select {
		case <-e.done:
			if e.err == nil {
				return e.res
			}
		default: // in flight
		}
	}
	return nil
}
