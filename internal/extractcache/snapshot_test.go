package extractcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"sync"
	"testing"

	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/rule"
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

// TestSnapshotRoundTrip pins warm-start behavior: a cache restored from a
// snapshot serves the same sources as hits — identical app metadata,
// byte-identical rule files, preserved warnings/paths, and cached errors
// still failing — without ever invoking the extractor.
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

	cold := NewWithExtractor(func(src, name string) (*symexec.Result, error) {
		t.Errorf("restored cache ran the extractor for %q", name)
		return nil, errors.New("unexpected extraction")
	})
	added, err := cold.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if added != n {
		t.Fatalf("restore added %d entries, want %d", added, n)
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

// TestSnapshotRejectsDamage: wrong version and corrupt payloads fail with
// the typed sentinels and never poison the cache.
func TestSnapshotRejectsDamage(t *testing.T) {
	warm := New()
	if _, err := warm.Extract(corpus.StoreAudit()[0].Source, ""); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Version bump in the header (bytes 8..11 are the big-endian version).
	bad := append([]byte(nil), snap...)
	bad[11]++
	if _, err := New().Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("version mismatch: err = %v, want ErrSnapshotVersion", err)
	}

	// Flipped payload byte: checksum must catch it.
	bad = append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x40
	if _, err := New().Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("payload damage: err = %v, want ErrSnapshotCorrupt", err)
	}

	// Truncation.
	if _, err := New().Restore(bytes.NewReader(snap[:len(snap)-7])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
	}

	// Wrong magic entirely.
	if _, err := New().Restore(bytes.NewReader([]byte("NOTASNAPSHOTATALL..."))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotConcurrent races Snapshot/Restore against live Extract
// traffic (meaningful under -race): snapshots must neither block nor
// corrupt the cache.
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
				if _, err := c.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
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
	if added, err := fresh.Restore(&buf); err != nil || added != n {
		t.Fatalf("final restore: added=%d err=%v", added, err)
	}
}

// FuzzExtractCacheRestore feeds arbitrary bytes to Restore on an empty
// cache: it never panics, bad input fails with ErrSnapshotVersion or
// ErrSnapshotCorrupt, and every entry it merged snapshots again and
// installs into a detector, the use a live install makes of it. Seeded
// from a real snapshot.
//
//	go test -run '^$' -fuzz FuzzExtractCacheRestore -fuzztime 30s -fuzzminimizetime 1x ./internal/extractcache
func FuzzExtractCacheRestore(f *testing.F) {
	warm := New()
	for _, a := range corpus.StoreAudit()[:2] {
		if _, err := warm.Extract(a.Source, ""); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := warm.Extract("def broken( {", ""); err == nil {
		f.Fatal("broken source must fail")
	}
	var buf bytes.Buffer
	if _, err := warm.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	for _, seed := range [][]byte{snap, snap[:len(snap)-1], snap[:len(snap)/2], snap[:12]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, data)
		// Random bytes almost never carry a valid SHA-256 trailer, so
		// also try the input with its trailer recomputed: that reaches
		// the record decoders behind the checksum.
		if len(data) > sha256.Size {
			body := data[:len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			checkRestore(t, append(bytes.Clone(body), sum[:]...))
		}
	})
}

func checkRestore(t *testing.T, data []byte) {
	c := New()
	if _, err := c.Restore(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore failed with an untyped error: %v", err)
	}
	if _, err := c.Snapshot(io.Discard); err != nil {
		t.Fatalf("restored entries do not snapshot again: %v", err)
	}
	for _, e := range c.entries {
		if e.res != nil {
			detect.New(detect.Options{}).Install(detect.NewInstalledApp(e.res, nil))
		}
	}
}
