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

// mergeSnapshot files every entry record of a Snapshot in c the way a
// checkpoint restore files the homes table's records: DecodeEntry, then
// Merge. It returns the number of entries Merge inserted.
func mergeSnapshot(c *Cache, r io.Reader) (int, error) {
	sr, err := snapcodec.NewReader(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return 0, err
	}
	added := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return added, nil
		}
		if err != nil {
			return added, err
		}
		k, res, cacheErr, err := DecodeEntry(rec)
		if err != nil {
			return added, err
		}
		if _, ok := c.Merge(k, res, cacheErr); ok {
			added++
		}
	}
}

// TestSnapshotRoundTrip pins the entry record: a cache filled from a
// snapshot's records serves the same sources as hits — identical app
// metadata, byte-identical rule files, preserved warnings/paths, and
// cached errors still failing — without ever invoking the extractor.
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
	added, err := mergeSnapshot(cold, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if added != n {
		t.Fatalf("merge added %d entries, want %d", added, n)
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

// TestSnapshotRejectsDamage: a damaged entry record fails DecodeEntry
// with ErrSnapshotCorrupt, so it never reaches Merge.
func TestSnapshotRejectsDamage(t *testing.T) {
	c := New()
	k, res, err := c.ExtractKeyed(corpus.StoreAudit()[0].Source, "")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := EncodeEntry(k, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, _, err := DecodeEntry(rec); err != nil || got.App.Name != res.App.Name {
		t.Fatalf("intact record: %v", err)
	}
	noRules := bytes.Replace(rec, []byte(`"rules":`), []byte(`"rwles":`), 1)
	badDefault := append(bytes.Clone(rec[:len(k)]),
		`{"hasResult":true,"inputs":[{"name":"x","default":{"t":"nope"}}],"rules":{"app":"A"}}`...)
	for name, bad := range map[string][]byte{
		"shorter than a key":      rec[:len(k)-1],
		"truncated payload":       rec[:len(rec)-7],
		"not JSON":                append(bytes.Clone(rec[:len(k)]), "{nope"...),
		"result without rules":    noRules,
		"undecodable input term":  badDefault,
		"rule set of wrong shape": append(bytes.Clone(rec[:len(k)]), `{"hasResult":true,"rules":[1]}`...),
	} {
		if _, _, _, err := DecodeEntry(bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestSnapshotConcurrent races Snapshot and Merge against live Extract
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
				if _, err := mergeSnapshot(c, bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("merge: %v", err)
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
	if added, err := mergeSnapshot(fresh, &buf); err != nil || added != n {
		t.Fatalf("final merge: added=%d err=%v", added, err)
	}
}

// FuzzExtractCacheRestore feeds arbitrary bytes, read as snapshot
// records, to DecodeEntry and Merge on an empty cache, the decoder and
// the merge a checkpoint restore runs on the homes table's records: it
// never panics, bad input fails with snapcodec.ErrVersion or
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
	if _, err := mergeSnapshot(c, bytes.NewReader(data)); err != nil && !errors.Is(err, snapcodec.ErrVersion) && !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("merge failed with an untyped error: %v", err)
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
