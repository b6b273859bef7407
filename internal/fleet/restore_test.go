package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/snapcodec"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// randomConfig binds each device input of the app src extracts to to
// one of three shared devices, or leaves it unbound, at random.
func randomConfig(t *testing.T, f *Fleet, rng *rand.Rand, src string) *detect.Config {
	t.Helper()
	res, err := f.Cache().Extract(src, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := detect.NewConfig()
	for _, in := range res.App.Inputs {
		if in.Capability != "" && rng.Intn(2) == 0 {
			cfg.Devices[in.Name] = fmt.Sprintf("dev-%d", rng.Intn(3))
		}
	}
	return cfg
}

// randomOps drives four homes of f through 16 random steps each over
// the demo corpus: installs of all but one demo app (half of them with
// random bindings), reconfigures that rebind an app or keep its
// bindings, and accepts of one or two random threat-log indices.
func randomOps(t *testing.T, f *Fleet, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	demo := corpus.ByCategory(corpus.Demo)
	for h := 0; h < 4; h++ {
		id := fmt.Sprintf("home-%d", h)
		order := rng.Perm(len(demo))
		var installed []corpus.App
		for step := 0; step < 16; step++ {
			k := rng.Intn(4)
			switch {
			case len(installed) < len(demo)-1 && (len(installed) == 0 || k < 2):
				app := demo[order[len(installed)]]
				var cfg *detect.Config
				if rng.Intn(2) == 0 {
					cfg = randomConfig(t, f, rng, app.Source)
				}
				if _, err := f.Install(ctx, id, app.Source, cfg); err != nil {
					t.Fatalf("install %s into %s: %v", app.Name, id, err)
				}
				installed = append(installed, app)
			case k < 3:
				app := installed[rng.Intn(len(installed))]
				var cfg *detect.Config
				if rng.Intn(3) > 0 {
					cfg = randomConfig(t, f, rng, app.Source)
				}
				if _, err := f.Reconfigure(ctx, id, app.Name, cfg); err != nil {
					t.Fatalf("reconfigure %s in %s: %v", app.Name, id, err)
				}
			default:
				log, _ := f.Threats(id)
				if len(log) == 0 {
					continue
				}
				idx := []int{rng.Intn(len(log))}
				if rng.Intn(2) == 0 {
					idx = append(idx, rng.Intn(len(log)))
				}
				if err := f.AcceptByIndex(id, idx...); err != nil {
					t.Fatalf("accept %v in %s: %v", idx, id, err)
				}
			}
		}
	}
}

// restoreCopy restores f's checkpoint sections into a new fleet built
// with opts, in the daemon's order: the verdict cache when opts keeps
// one, then the homes, whose app table restores the extraction cache.
func restoreCopy(t *testing.T, f *Fleet, opts Options) *Fleet {
	t.Helper()
	var vc, homes bytes.Buffer
	if _, err := f.Verdicts().Snapshot(&vc); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SnapshotHomes(&homes); err != nil {
		t.Fatal(err)
	}
	g := New(opts)
	if g.Verdicts() != nil {
		if _, err := g.Verdicts().Restore(&vc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.RestoreHomes(&homes); err != nil {
		t.Fatalf("RestoreHomes: %v", err)
	}
	return g
}

// TestRestoreEquivalence: a home rebuilt from its op history serves
// what the live home serves — through a checkpoint restore with the
// verdict cache restored, the same restore with every verdict solved
// again, and an export/import hop per home — and evolves identically
// under a further install.
func TestRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	demo := corpus.ByCategory(corpus.Demo)
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			live := New(Options{})
			randomOps(t, live, seed)
			imported := New(Options{})
			for _, id := range live.HomeIDs() {
				blob, _, err := live.ExportHome(id)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := imported.ImportHome(id, blob); err != nil {
					t.Fatalf("ImportHome %s: %v", id, err)
				}
			}
			copies := map[string]*Fleet{
				"restore":                  restoreCopy(t, live, Options{}),
				"restore, verdicts solved": restoreCopy(t, live, Options{DisablePairVerdicts: true}),
				"export/import":            imported,
			}
			for name, g := range copies {
				t.Run(name, func(t *testing.T) { assertFleetsEqual(t, live, g) })
			}
			for _, id := range live.HomeIDs() {
				apps, _ := live.Apps(id)
				app := demo[slices.IndexFunc(demo, func(a corpus.App) bool { return !slices.Contains(apps, a.Name) })]
				want, err := live.Install(ctx, id, app.Source, nil)
				if err != nil {
					t.Fatal(err)
				}
				wb, _ := detect.MarshalThreats(want.Threats)
				for name, g := range copies {
					got, err := g.Install(ctx, id, app.Source, nil)
					if err != nil {
						t.Fatalf("%s: further install into %s: %v", name, id, err)
					}
					if gb, _ := detect.MarshalThreats(got.Threats); !bytes.Equal(gb, wb) {
						t.Errorf("%s: home %s: further install reported %d threats, live %d", name, id, len(got.Threats), len(want.Threats))
					}
					if fmt.Sprint(got.Chains) != fmt.Sprint(want.Chains) {
						t.Errorf("%s: home %s: chains %v, live %v", name, id, got.Chains, want.Chains)
					}
					if got.ThreatLogBase != want.ThreatLogBase {
						t.Errorf("%s: home %s: ThreatLogBase %d, live %d", name, id, got.ThreatLogBase, want.ThreatLogBase)
					}
				}
			}
		})
	}
}

// TestHomesLayoutV1Rejected: the version-1 homes layout, which stored
// each home's threat log, ledger and accepted set by value, and the
// version-2 layout, whose app table held keyless results beside a
// separate extraction-cache section, fail with snapcodec.ErrVersion and
// leave no home, as an export blob and as a checkpoint section. The
// fixtures are pinnedFleet's bytes as the v1 and v2 writers produced
// them (the digests TestHomesLayoutBytesPinned pinned).
func TestHomesLayoutV1Rejected(t *testing.T) {
	read := func(name, wantDigest string) []byte {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != wantDigest {
			t.Fatalf("testdata/%s is not the pinned bytes", name)
		}
		return b
	}
	for _, v := range []struct{ name, blob, section string }{
		{"v1", "fba56c03a0cc44ae5354926b8c08a91d66d0f598c7f00712b6283950c585fa18", "44c6be15b68b253c9a680a1cb43a8d73efa717f9389af85df558c67ccd83bc5d"},
		{"v2", "00d51d657c0357df7a6f6ddf720b4a8aa03b5bfbef4415c2540f2117fc61080e", "606f68c914215e5a1000fa43b12c70964a1620199193de541d9489087a81d667"},
	} {
		blob := read("home-export-"+v.name+".bin", v.blob)
		section := read("homes-"+v.name+".bin", v.section)
		f := New(Options{})
		if _, err := f.ImportHome("fig3", blob); !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("ImportHome of a %s blob: %v, want ErrVersion", v.name, err)
		}
		if _, err := f.RestoreHomes(bytes.NewReader(section)); !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("RestoreHomes of a %s section: %v, want ErrVersion", v.name, err)
		}
		if n := f.NumHomes(); n != 0 {
			t.Errorf("rejected %s bytes left %d homes", v.name, n)
		}
	}
}

// TestSnapshotDuringTraffic takes checkpoints while homes take ops on
// other goroutines (meaningful under -race): every checkpoint restores,
// and the one taken after the traffic stops restores the live fleet.
func TestSnapshotDuringTraffic(t *testing.T) {
	f := New(Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < 3; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			ctx := context.Background()
			id := fmt.Sprintf("home-%d", h)
			for _, app := range corpus.ByCategory(corpus.Demo) {
				if _, err := f.Install(ctx, id, app.Source, nil); err != nil {
					t.Errorf("install %s into %s: %v", app.Name, id, err)
					return
				}
				if _, err := f.Reconfigure(ctx, id, "ComfortTV", nil); err != nil && !errors.Is(err, ErrAppNotInstalled) {
					t.Errorf("reconfigure in %s: %v", id, err)
					return
				}
				if log, _ := f.Threats(id); len(log) > 0 {
					if err := f.AcceptByIndex(id, len(log)-1); err != nil {
						t.Errorf("accept in %s: %v", id, err)
						return
					}
				}
			}
		}(h)
	}
	go func() { wg.Wait(); close(done) }()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		var buf bytes.Buffer
		if _, err := f.SnapshotHomes(&buf); err != nil {
			t.Fatalf("SnapshotHomes: %v", err)
		}
		g := New(Options{})
		if _, err := g.RestoreHomes(&buf); err != nil {
			t.Fatalf("RestoreHomes of a checkpoint taken under traffic: %v", err)
		}
		if stop {
			assertFleetsEqual(t, f, g)
		}
	}
}

// installedResults returns the extraction result of every install op in
// home id's history.
func installedResults(t *testing.T, f *Fleet, id string) []*symexec.Result {
	t.Helper()
	h := f.lookup(id)
	if h == nil {
		t.Fatalf("no home %q", id)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*symexec.Result
	for _, op := range h.ops {
		if op.kind == wal.OpFleetInstall {
			out = append(out, op.res)
		}
	}
	return out
}

// tableLen returns the app count a homes section's meta record declares.
func tableLen(t *testing.T, section []byte) int {
	t.Helper()
	sr, err := snapcodec.NewReader(bytes.NewReader(section), homesSnapshotMagic, homesSnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	var meta homesMetaJSON
	if err := json.Unmarshal(rec, &meta); err != nil {
		t.Fatal(err)
	}
	return meta.Apps
}

// TestRestoreSharesExtractions: a checkpoint restore, with no
// extraction-cache section, puts each app-table entry into the
// extraction cache, so every rebuilt home installs the very result a
// live install of that source gets, and installing the whole pool into
// a new home after the restore interns each app once in the next
// checkpoint's app table.
func TestRestoreSharesExtractions(t *testing.T) {
	live := restoreBenchFleet(t, 300)
	var vc, homes bytes.Buffer
	if _, err := live.Verdicts().Snapshot(&vc); err != nil {
		t.Fatal(err)
	}
	if _, err := live.SnapshotHomes(&homes); err != nil {
		t.Fatal(err)
	}
	f := New(Options{})
	if _, err := f.Verdicts().Restore(&vc); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RestoreHomes(&homes); err != nil {
		t.Fatal(err)
	}
	pool := restorePool()
	canonical := map[string]*symexec.Result{}
	for _, src := range pool {
		res, err := f.Cache().Extract(src, "")
		if err != nil {
			t.Fatal(err)
		}
		canonical[res.App.Name] = res
	}
	if m := f.Cache().Stats().Misses; m != 0 {
		t.Errorf("extracting the pool after the restore ran %d extractions, want 0", m)
	}
	copies := 0
	for _, id := range f.HomeIDs() {
		for _, res := range installedResults(t, f, id) {
			if res != canonical[res.App.Name] {
				copies++
			}
		}
	}
	if copies > 0 {
		t.Errorf("%d restored installs hold a result that is not the extraction cache's", copies)
	}
	ctx := context.Background()
	for _, src := range pool {
		if _, err := f.Install(ctx, "new-home", src, nil); err != nil {
			t.Fatal(err)
		}
	}
	var again bytes.Buffer
	if _, err := f.SnapshotHomes(&again); err != nil {
		t.Fatal(err)
	}
	if n := tableLen(t, again.Bytes()); n != len(pool) {
		t.Errorf("app table after restore plus reinstall holds %d entries, want %d (one per app)", n, len(pool))
	}
}

// TestImportHomeSharesExtractions: a home imported into a fleet that
// already caches its apps installs the cache's results, not copies
// decoded from the blob.
func TestImportHomeSharesExtractions(t *testing.T) {
	blob, _, err := pinnedFleet(t).ExportHome("fig3")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Options{})
	canonical := map[string]*symexec.Result{}
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		res, err := f.Cache().Extract(mustSource(t, app), "")
		if err != nil {
			t.Fatal(err)
		}
		canonical[app] = res
	}
	if _, err := f.ImportHome("fig3", blob); err != nil {
		t.Fatal(err)
	}
	got := installedResults(t, f, "fig3")
	if len(got) != 2 {
		t.Fatalf("imported home has %d installs, want 2", len(got))
	}
	for _, res := range got {
		if res != canonical[res.App.Name] {
			t.Errorf("imported %s is not the extraction cache's result", res.App.Name)
		}
	}
	if n := f.Cache().Len(); n != 2 {
		t.Errorf("extraction cache holds %d entries after the import, want 2", n)
	}
}
