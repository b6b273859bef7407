package extractcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homeguard/internal/corpus"
	"homeguard/internal/symexec"
)

func TestHitMiss(t *testing.T) {
	app, ok := corpus.Get("ComfortTV")
	if !ok {
		t.Fatal("corpus app ComfortTV missing")
	}
	other, _ := corpus.Get("ColdDefender")

	c := New()
	r1, err := c.Extract(app.Source, "")
	if err != nil {
		t.Fatalf("first extract: %v", err)
	}
	r2, err := c.Extract(app.Source, "")
	if err != nil {
		t.Fatalf("second extract: %v", err)
	}
	if r1 != r2 {
		t.Error("second extract of identical source returned a different *Result; want the cached one")
	}
	if _, err := c.Extract(other.Source, ""); err != nil {
		t.Fatalf("extract distinct app: %v", err)
	}
	s := c.Stats()
	if s.Lookups != 3 || s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 3 lookups / 1 hit / 2 misses / 2 entries", s)
	}
	if got, want := s.HitRate(), 1.0/3.0; got != want {
		t.Errorf("HitRate() = %v, want %v", got, want)
	}
}

// TestKeyOfPinned pins KeyOf's bytes: a key is SHA-256 over the source,
// a NUL and the name override, so hashing the strings in place must give
// the digests the byte-slice copies gave.
func TestKeyOfPinned(t *testing.T) {
	for _, c := range []struct{ src, name, want string }{
		{"definition(name: \"Pinned\")\ndef installed() {}\n", "", "8072d2f9bfc79aef3697230d66af5c8078af3b0c846a41c58e168678d597d7ed"},
		{"src", "Override", "544072c8b42b3616a64fc7ffec4381e818f9cd698e8afafb6a61ebf419d6a502"},
	} {
		if got := fmt.Sprintf("%x", KeyOf(c.src, c.name)); got != c.want {
			t.Errorf("KeyOf(%q, %q) = %s, want %s", c.src, c.name, got, c.want)
		}
	}
}

func TestNameOverrideChangesKey(t *testing.T) {
	if KeyOf("src", "") == KeyOf("src", "x") {
		t.Error("name override should change the content address")
	}
	// Domain separation: the (src, name) split point must matter.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Error("source and name are not domain-separated in the key")
	}
}

func TestErrorsAreCached(t *testing.T) {
	c := New()
	_, err1 := c.Extract("not groovy {{{", "")
	if err1 == nil {
		t.Fatal("expected a parse error")
	}
	_, err2 := c.Extract("not groovy {{{", "")
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second extract returned %v, want the cached error %v", err2, err1)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failing source extracted once and the error replayed", s)
	}
}

// TestSingleflightDedup proves that N goroutines racing on one uncached
// key run extraction exactly once: the extractor blocks until every
// goroutine has issued its lookup, so all N are provably concurrent.
func TestSingleflightDedup(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	want := &symexec.Result{}
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		calls.Add(1)
		<-release // hold the flight open until all goroutines have joined
		return want, nil
	})

	var wg sync.WaitGroup
	results := make([]*symexec.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			r, err := c.Extract("hot-app-source", "")
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = r
		}(i)
	}
	// Wait until every goroutine is at (or past) its Extract call, then
	// let the single in-flight extraction finish.
	for i := 0; i < n; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("extractor ran %d times for one key under contention, want exactly 1", got)
	}
	for i, r := range results {
		if r != want {
			t.Fatalf("goroutine %d got result %p, want the shared %p", i, r, want)
		}
	}
	s := c.Stats()
	if s.Lookups != n || s.Misses != 1 || s.Hits != n-1 {
		t.Errorf("stats = %+v, want %d lookups / 1 miss / %d hits", s, n, n-1)
	}
}

// TestExtractorPanicDoesNotWedge checks panic safety: a panicking
// extraction must re-raise for its own caller but leave a cached error —
// never an unclosed entry that would block later lookups forever.
func TestExtractorPanicDoesNotWedge(t *testing.T) {
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first Extract did not re-raise the extractor panic")
			}
		}()
		c.Extract("src", "")
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Extract("src", "")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("post-panic Extract returned nil error, want the cached panic error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Extract after extractor panic blocked: singleflight entry was never closed")
	}
}

func TestPurge(t *testing.T) {
	app, _ := corpus.Get("ComfortTV")
	c := New()
	if _, err := c.Extract(app.Source, ""); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len() = %d after Purge, want 0", c.Len())
	}
	if _, err := c.Extract(app.Source, ""); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d after purge+re-extract, want 2", s.Misses)
	}
}

// TestBoundedEviction pins the entry cap: inserting past the limit evicts
// completed entries, counts them, and evicted keys re-extract on return.
func TestBoundedEviction(t *testing.T) {
	calls := 0
	c := NewWithExtractor(func(src, appName string) (*symexec.Result, error) {
		calls++
		return &symexec.Result{}, nil
	})
	c.SetLimit(2)
	srcs := []string{"a", "b", "c", "d"}
	for _, s := range srcs {
		if _, err := c.Extract(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if calls != 4 {
		t.Fatalf("extractions = %d, want 4", calls)
	}
	// Evicted keys re-extract; re-inserting them may evict keys that the
	// same sweep then misses again, so anywhere between the 2 originally
	// evicted and all 4 can re-run — but never more.
	before := calls
	for _, s := range srcs {
		if _, err := c.Extract(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	if re := calls - before; re < 2 || re > 4 {
		t.Fatalf("re-extractions = %d, want between 2 and 4", re)
	}
}
