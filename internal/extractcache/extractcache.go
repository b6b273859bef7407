// Package extractcache is a content-addressed cache of rule-extraction
// results shared across homes. A SmartApp popular on the app store is
// installed into thousands of homes; its source is identical everywhere,
// so its symbolic execution is too. The cache keys extraction output by
// the SHA-256 of the source (plus the name override) so the fleet runs
// symexec once per distinct app, not once per install.
//
// Concurrent requests for the same uncached source are deduplicated with
// a singleflight discipline: the first caller executes, later callers
// block on the in-flight entry and share its result. This matters at
// fleet cold-start, when many homes install the same hot app at once.
//
// A cached *symexec.Result is immutable after extraction (see the Result
// documentation in internal/symexec) and is therefore handed out to every
// caller without copying; callers must treat it as read-only.
//
// An entry also keeps the source string of the caller that filled it,
// and ExtractKeyed hands that canonical string back: a caller that keeps
// an app's source (the fleet's home history, the store auditor) then
// holds the cache's one copy, not its own request's. Nothing else of an
// extraction is ever persisted: a checkpoint, export blob or log record
// holds the source, and its reader fills the cache again with Warm.
package extractcache

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"homeguard/internal/symexec"
)

// Key is the content address of one extraction: SHA-256 over the app
// source and the name override.
type Key [sha256.Size]byte

// KeyOf computes the content address for a source/name pair.
func KeyOf(src, appName string) Key {
	h := sha256.New()
	h.Write([]byte(src))
	h.Write([]byte{0}) // domain-separate source from name override
	h.Write([]byte(appName))
	var k Key
	h.Sum(k[:0])
	return k
}

// entry is one cache slot. done is closed by the extracting goroutine
// once res/err are set; waiters block on it (singleflight). src is the
// source of the caller that created the entry.
type entry struct {
	done chan struct{}
	src  string
	res  *symexec.Result
	err  error
}

// Stats are cumulative cache counters. HitRate is derived.
type Stats struct {
	// Lookups counts Extract and ExtractKeyed calls; Warm counts in no
	// counter.
	Lookups uint64
	// Hits counts lookups served from a completed or in-flight entry
	// (an in-flight join still means the caller did no symexec work).
	Hits uint64
	// Misses counts lookups that ran symbolic execution themselves.
	Misses uint64
	// Evictions counts completed entries dropped by the entry bound
	// (NewBounded); nonzero means the live catalog outgrew the cache and
	// some apps are being re-extracted.
	Evictions uint64
	// Entries is the current number of cached results.
	Entries int
}

// HitRate returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is a goroutine-safe content-addressed extraction cache. The zero
// value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	entries   map[Key]*entry
	lookups   uint64
	hits      uint64
	misses    uint64
	evictions uint64
	limit     int // max completed entries kept; 0 = unbounded

	// extract is the extraction function; replaceable in tests.
	extract func(src, appName string) (*symexec.Result, error)
}

// New returns an empty unbounded cache backed by symexec.Extract.
func New() *Cache {
	return &Cache{
		entries: map[Key]*entry{},
		extract: symexec.Extract,
	}
}

// NewBounded returns an empty cache that holds at most limit extraction
// results, evicting arbitrary completed entries on overflow (the same
// discipline as pairverdict.NewBounded). A long-running daemon that sees
// one-off app sources — user-modified copies, fuzzed installs — would
// otherwise grow the cache without limit; under the bound a hot catalog
// stays resident and only the hit rate of the long tail dips. A limit
// <= 0 means unbounded.
func NewBounded(limit int) *Cache {
	return &Cache{entries: map[Key]*entry{}, limit: limit, extract: symexec.Extract}
}

// NewWithExtractor returns a cache backed by a custom extraction function
// (used by tests to count and delay extractions).
func NewWithExtractor(fn func(src, appName string) (*symexec.Result, error)) *Cache {
	return &Cache{entries: map[Key]*entry{}, extract: fn}
}

// SetLimit adjusts the entry bound (0 = unbounded). Overflow is trimmed
// on the next insert.
func (c *Cache) SetLimit(limit int) {
	c.mu.Lock()
	c.limit = limit
	c.mu.Unlock()
}

// Extract returns the extraction result for src, running symbolic
// execution at most once per distinct (src, appName) no matter how many
// goroutines ask concurrently. Errors are cached too: extraction is
// deterministic, so a source that fails to parse fails for every home.
func (c *Cache) Extract(src, appName string) (*symexec.Result, error) {
	_, res, err := c.ExtractKeyed(src, appName)
	return res, err
}

// ExtractKeyed is Extract that also returns the entry's canonical
// source: a string equal to src, held by the cache entry, which the
// caller can keep in place of its own copy.
func (c *Cache) ExtractKeyed(src, appName string) (string, *symexec.Result, error) {
	return c.get(src, appName, true)
}

// Warm files the extraction of (src, appName) in the cache, joining an
// entry already present or in flight, and returns what ExtractKeyed
// returns. It counts no lookup, hit or miss: restores and log replay
// call it, so a recovered node's counters describe its traffic alone.
func (c *Cache) Warm(src, appName string) (string, *symexec.Result, error) {
	return c.get(src, appName, false)
}

func (c *Cache) get(src, appName string, count bool) (string, *symexec.Result, error) {
	k := KeyOf(src, appName)

	c.mu.Lock()
	if count {
		c.lookups++
	}
	if e, ok := c.entries[k]; ok {
		if count {
			c.hits++
		}
		c.mu.Unlock()
		<-e.done
		return e.src, e.res, e.err
	}
	e := &entry{done: make(chan struct{}), src: src}
	c.entries[k] = e
	if count {
		c.misses++
	}
	c.evictOverflowLocked()
	c.mu.Unlock()

	// Close done even if the extractor panics: an unclosed entry would
	// wedge every later Extract of this key forever. The panic is
	// converted to a cached error so waiters fail too instead of
	// blocking, then re-raised for this caller.
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("extractcache: extraction panic: %v", r)
				close(e.done)
				panic(r)
			}
			close(e.done)
		}()
		e.res, e.err = c.extract(src, appName)
	}()
	return src, e.res, e.err
}

// evictOverflowLocked drops arbitrary completed entries until the cache
// fits its limit. In-flight entries are never victims (waiters block on
// them; this also protects the just-inserted entry, whose done channel is
// still open). Callers hold c.mu. Map iteration order gives a cheap
// pseudo-random victim choice — the same trade pairverdict makes.
func (c *Cache) evictOverflowLocked() {
	if c.limit <= 0 {
		return
	}
	for k, e := range c.entries {
		if len(c.entries) <= c.limit {
			return
		}
		select {
		case <-e.done:
			delete(c.entries, k)
			c.evictions++
		default: // in flight
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Lookups:   c.lookups,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached entry (counters are kept). In-flight
// extractions complete and are returned to their waiters but are no
// longer cached for later callers.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[Key]*entry{}
}
