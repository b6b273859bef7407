package extractcache

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"unsafe"

	"homeguard/internal/corpus"
	"homeguard/internal/rule"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
)

func ruleBytes(t *testing.T, rs *rule.RuleSet) string {
	t.Helper()
	if rs == nil {
		return ""
	}
	b, err := rule.MarshalRuleSet(rs)
	if err != nil {
		t.Fatalf("marshal rule set: %v", err)
	}
	return string(b)
}

// warmSnapshot files every (key, source) record of a Snapshot in c
// with Warm, the way a checkpoint restore files the sources of the
// homes table, and checks that each record's key is its source's. It
// returns the number of records read.
func warmSnapshot(t *testing.T, c *Cache, r io.Reader) int {
	t.Helper()
	sr, err := snapcodec.NewReader(r, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatalf("snapshot header: %v", err)
	}
	n := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("snapshot record %d: %v", n, err)
		}
		var k Key
		src := string(rec[len(k):])
		if copy(k[:], rec) != len(k) || k != KeyOf(src, "") {
			t.Fatalf("snapshot record %d: key is not its source's", n)
		}
		c.Warm(src, "")
		n++
	}
}

// TestSnapshotRoundTrip: a cache warmed from a snapshot's sources
// serves them as hits, with identical app metadata, byte-identical rule
// files, preserved warnings and path counts, and cached errors still
// failing, and the warming counts no lookup.
func TestSnapshotRoundTrip(t *testing.T) {
	apps := corpus.StoreAudit()[:5]
	src := func(i int) string { return apps[i].Source }

	warm := New()
	want := make([]*symexec.Result, len(apps))
	for i := range apps {
		r, err := warm.Extract(src(i), "")
		if err != nil {
			t.Fatalf("extract %d: %v", i, err)
		}
		want[i] = r
	}
	if _, err := warm.Extract("def broken( {", ""); err == nil {
		t.Fatal("broken source must fail")
	}

	var buf bytes.Buffer
	n, err := warm.Snapshot(&buf)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if n != len(apps)+1 {
		t.Fatalf("snapshot wrote %d entries, want %d", n, len(apps)+1)
	}

	cold := New()
	if got := warmSnapshot(t, cold, &buf); got != n {
		t.Fatalf("read %d records, want %d", got, n)
	}
	if st := cold.Stats(); st.Lookups != 0 || st.Misses != 0 || st.Entries != n {
		t.Fatalf("after Warm: %+v, want no lookups and %d entries", st, n)
	}

	for i := range apps {
		got, err := cold.Extract(src(i), "")
		if err != nil {
			t.Fatalf("warm extract %d: %v", i, err)
		}
		if got.App.Name != want[i].App.Name ||
			got.App.Description != want[i].App.Description ||
			len(got.App.Inputs) != len(want[i].App.Inputs) ||
			got.Paths != want[i].Paths ||
			len(got.Warnings) != len(want[i].Warnings) {
			t.Errorf("app %d metadata diverged after restore", i)
		}
		if ruleBytes(t, got.Rules) != ruleBytes(t, want[i].Rules) {
			t.Errorf("app %d rule file diverged after restore", i)
		}
		for j := range got.App.Inputs {
			g, w := got.App.Inputs[j], want[i].App.Inputs[j]
			gd, wd := "", ""
			if g.Default != nil {
				gd = g.Default.String()
			}
			if w.Default != nil {
				wd = w.Default.String()
			}
			if g.Name != w.Name || g.Capability != w.Capability || gd != wd {
				t.Errorf("app %d input %d diverged: %+v vs %+v", i, j, g, w)
			}
		}
	}
	if _, err := cold.Extract("def broken( {", ""); err == nil {
		t.Error("restored error entry did not fail")
	}
	st := cold.Stats()
	if st.Misses != 0 || st.Hits != uint64(len(apps)+1) {
		t.Errorf("warm-boot stats: hits=%d misses=%d, want all hits", st.Hits, st.Misses)
	}
	if st.HitRate() < 0.99 {
		t.Errorf("warm-boot hit rate = %.3f, want >= 0.99", st.HitRate())
	}
}

// TestWarmSharesEntry: Warm of a source the cache holds returns the
// entry's source string and result, and ExtractKeyed hands every later
// caller the string of the caller that filled the entry.
func TestWarmSharesEntry(t *testing.T) {
	c := New()
	first := corpus.StoreAudit()[0].Source
	again := string(append([]byte(nil), first...)) // equal, not the same string
	_, res, err := c.Warm(first, "")
	if err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func(string, string) (string, *symexec.Result, error){
		"Warm": c.Warm, "ExtractKeyed": c.ExtractKeyed,
	} {
		src, got, err := get(again, "")
		if err != nil || got != res {
			t.Errorf("%s: got %p, %v; want the entry's result %p", name, got, err, res)
		}
		if unsafe.StringData(src) != unsafe.StringData(first) {
			t.Errorf("%s returned the caller's source, not the entry's", name)
		}
	}
	if st := c.Stats(); st.Lookups != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats %+v, want the one ExtractKeyed counted as a hit", st)
	}
}

// TestSnapshotConcurrent races Snapshot and Warm against live Extract
// traffic (meaningful under -race): neither may block on or corrupt the
// cache.
func TestSnapshotConcurrent(t *testing.T) {
	apps := corpus.StoreAudit()[:8]
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Extract(apps[(g*5+i)%len(apps)].Source, ""); err != nil {
					t.Errorf("extract: %v", err)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var buf bytes.Buffer
				if _, err := c.Snapshot(&buf); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				warmSnapshot(t, c, &buf)
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(apps) {
		t.Errorf("cache ended with %d entries, want %d", c.Len(), len(apps))
	}
	// A final round trip is intact.
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf)
	if err != nil || n != len(apps) {
		t.Fatalf("final snapshot: n=%d err=%v", n, err)
	}
	fresh := New()
	if got := warmSnapshot(t, fresh, &buf); got != n || fresh.Len() != n {
		t.Fatalf("final warm: read %d records into %d entries, want %d", got, fresh.Len(), n)
	}
}
