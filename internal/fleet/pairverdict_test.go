package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"homeguard/internal/detect"
	"homeguard/internal/pairverdict"
)

// catalogSources returns the five demo apps every home installs.
func catalogSources(t testing.TB) []string {
	apps := []string{"ComfortTV", "ColdDefender", "CatchLiveShow", "BurglarFinder", "NightCare"}
	sources := make([]string, len(apps))
	for i, n := range apps {
		sources[i] = mustSource(t, n)
	}
	return sources
}

func installCatalog(t testing.TB, f *Fleet, homes int) {
	sources := catalogSources(t)
	var wg sync.WaitGroup
	errs := make(chan error, homes)
	for h := 0; h < homes; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			id := fmt.Sprintf("home-%04d", h)
			for _, src := range sources {
				if _, err := f.Install(context.Background(), id, src, nil); err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func threatStrings(t testing.TB, f *Fleet, homeID string) []string {
	ts, err := f.Threats(homeID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ts))
	for i, th := range ts {
		out[i] = th.String()
	}
	sort.Strings(out)
	return out
}

// TestFleetSharedCatalogPairVerdicts drives the tentpole claim under the
// race detector: when every home installs the same app catalog, the shared
// pair-verdict cache solves each distinct app pair once fleet-wide, every
// later home is served from cache, and the served verdicts are identical
// to what a cache-less home would compute itself.
func TestFleetSharedCatalogPairVerdicts(t *testing.T) {
	homes := 200
	if testing.Short() {
		homes = 64
	}

	f := New(Options{Shards: 32})
	installCatalog(t, f, homes)

	// Installs within a home are sequential and the catalog order is
	// fixed, so every home issues the same verdict lookups and exactly one
	// home's worth of lookups miss fleet-wide.
	pv := f.Verdicts().Stats()
	if pv.Lookups == 0 {
		t.Fatal("no pair-verdict lookups; the cache is not wired into installs")
	}
	if pv.Misses*uint64(homes) != pv.Lookups {
		t.Errorf("verdict misses = %d over %d lookups in %d homes; want exactly one home's worth of misses",
			pv.Misses, pv.Lookups, homes)
	}
	if homes >= 100 && pv.Hits*100 < pv.Lookups*99 {
		t.Errorf("verdict hit ratio = %.4f over %d homes, want >= 0.99", pv.HitRate(), homes)
	}

	// The contrast fleet runs the same catalog without verdict sharing;
	// its per-home solver cost is constant, so a few homes suffice to
	// project the fleet-wide baseline.
	const baseHomes = 8
	base := New(Options{Shards: 4, DisablePairVerdicts: true})
	installCatalog(t, base, baseHomes)
	if base.Verdicts() != nil {
		t.Fatal("DisablePairVerdicts still built a verdict cache")
	}
	bt := base.Metrics().Detectors
	if bt.PairVerdictHits != 0 || bt.PairVerdictMisses != 0 {
		t.Errorf("cache-less fleet recorded verdict traffic: %+v", bt)
	}
	perHome := bt.SolverCalls / baseHomes
	if perHome == 0 {
		t.Fatal("baseline home ran no solver calls; the contrast is vacuous")
	}
	projected := perHome * uint64(homes)

	ct := f.Metrics().Detectors
	if ct.SolverCalls*5 > projected {
		t.Errorf("solver calls with shared verdicts = %d, cache-less projection = %d; want >= 5x reduction",
			ct.SolverCalls, projected)
	}

	// Soundness of sharing: a home served from cache reports exactly the
	// threats a cache-less home computes for itself.
	want := threatStrings(t, base, "home-0000")
	for _, probe := range []int{0, homes / 2, homes - 1} {
		id := fmt.Sprintf("home-%04d", probe)
		got := threatStrings(t, f, id)
		if len(got) != len(want) {
			t.Fatalf("%s: %d threats via shared verdicts, cache-less home has %d\nshared: %v\nlocal:  %v",
				id, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s threat %d = %q, cache-less home reports %q", id, i, got[i], want[i])
			}
		}
	}
}

// TestFleetVerdictCacheSharedAcrossFleets: a caller-provided verdict cache
// is reused, so two fleets (or a fleet plus batch tooling) solve a shared
// catalog once between them.
func TestFleetVerdictCacheSharedAcrossFleets(t *testing.T) {
	shared := f1VerdictCache(t)
	f2 := New(Options{Verdicts: shared})
	installCatalog(t, f2, 1)
	pv := shared.Stats()
	if pv.Hits == 0 {
		t.Errorf("second fleet missed on every pair of an already-solved catalog: %+v", pv)
	}
	if f2.Verdicts() != shared {
		t.Error("fleet replaced the caller-provided verdict cache")
	}
}

func f1VerdictCache(t *testing.T) *pairverdict.Cache {
	f1 := New(Options{})
	installCatalog(t, f1, 1)
	return f1.Verdicts()
}

// TestDetectorLayerVerdictCacheIgnored: the fleet gives every home its
// own verdict cache (Options.Verdicts), so a cache preset in
// Options.Detector.Verdicts sees no traffic and the cache the fleet
// reports is the one homes hit.
func TestDetectorLayerVerdictCacheIgnored(t *testing.T) {
	preset := pairverdict.New()
	for _, opts := range []Options{
		{Detector: detect.Options{Verdicts: preset}},
		{Verdicts: pairverdict.New(), Detector: detect.Options{Verdicts: preset}},
	} {
		f := New(opts)
		installCatalog(t, f, 2)
		if f.Verdicts() == preset || f.Verdicts() == nil {
			t.Fatalf("fleet reports cache %p, want its own (preset %p)", f.Verdicts(), preset)
		}
		if opts.Verdicts != nil && f.Verdicts() != opts.Verdicts {
			t.Error("fleet replaced the caller-provided verdict cache")
		}
		if s := f.Metrics().PairVerdicts; s.Lookups == 0 || s.Hits == 0 {
			t.Errorf("the reported cache is idle: %+v", s)
		}
		if s := preset.Stats(); s.Lookups != 0 {
			t.Errorf("detector-layer cache saw %d lookups", s.Lookups)
		}
	}
}

// TestDisablePairVerdictsWinsOverSuppliedCache: the ablation flag must
// actually disable sharing even when a cache is (mistakenly) supplied,
// or contrast runs silently measure the cached configuration.
func TestDisablePairVerdictsWinsOverSuppliedCache(t *testing.T) {
	supplied := pairverdict.New()
	f := New(Options{
		Verdicts:            supplied,
		Detector:            detect.Options{Verdicts: supplied},
		DisablePairVerdicts: true,
	})
	installCatalog(t, f, 2)
	if f.Verdicts() != nil {
		t.Error("Verdicts() is non-nil on a DisablePairVerdicts fleet")
	}
	if s := supplied.Stats(); s.Lookups != 0 {
		t.Errorf("supplied cache saw %d lookups despite DisablePairVerdicts", s.Lookups)
	}
	if dt := f.Metrics().Detectors; dt.PairVerdictHits != 0 || dt.PairVerdictMisses != 0 {
		t.Errorf("cache-less fleet recorded verdict traffic: %+v", dt)
	}
}

// TestFleetDetectorTotals: the fleet-wide detector rollup sums per-home
// counters, including the footprint prune.
func TestFleetDetectorTotals(t *testing.T) {
	f := New(Options{})
	installCatalog(t, f, 2)
	dt := f.Metrics().Detectors
	if dt.PairsChecked == 0 || dt.SolverCalls == 0 {
		t.Errorf("detector totals look empty: %+v", dt)
	}
	if dt.PairVerdictMisses == 0 || dt.PairVerdictHits == 0 {
		t.Errorf("two identical homes should record both verdict misses and hits: %+v", dt)
	}
	single := New(Options{Detector: detect.Options{DisablePruning: true}, DisablePairVerdicts: true})
	installCatalog(t, single, 1)
	st := single.Metrics().Detectors
	if st.PairsPruned != 0 {
		t.Errorf("pruning disabled but PairsPruned = %d", st.PairsPruned)
	}
}
