package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"homeguard/internal/corpus"
	"homeguard/internal/obs"
	"homeguard/internal/wal"
)

// firstErr collects the first install error from RunParallel workers:
// testing.B's FailNow contract requires the benchmark goroutine, so a
// worker records the error and the benchmark b.Fatals after the barrier.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// BenchmarkFleetInstall measures fleet-scale install throughput: each
// iteration is one new home installing the five demo apps (Figs. 3–5),
// with iterations spread across GOMAXPROCS goroutines the way daemon
// requests would be. The shared extraction cache means the five apps are
// symbolically executed once for the whole run no matter how many homes
// install them; the reported hit-ratio and extractions metrics prove it.
//
// Run with e.g.:
//
//	go test ./internal/fleet -bench FleetInstall -benchtime 1000x
//
// for the 1k-home configuration.
func BenchmarkFleetInstall(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	f := New(Options{Shards: 64})
	var homeSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var ferr firstErr
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
			for _, app := range demo {
				if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
					ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
					return
				}
			}
		}
	})
	b.StopTimer()
	if ferr.err != nil {
		b.Fatal(ferr.err)
	}

	cs := f.Cache().Stats()
	if int(cs.Misses) != len(demo) {
		b.Fatalf("cache misses = %d, want one extraction per distinct app (%d): the cache benefit is gone",
			cs.Misses, len(demo))
	}
	m := f.Metrics()
	b.ReportMetric(cs.HitRate(), "hit-ratio")
	b.ReportMetric(float64(cs.Misses), "extractions")
	b.ReportMetric(float64(m.InstallP99.Microseconds()), "p99-µs")
}

// BenchmarkFleetInstallTraced is BenchmarkFleetInstall with span tracing
// enabled and every request captured: each install records its full
// pipeline span tree (extract/detect/compile/solve/...) into the bounded
// capture. Comparing against BenchmarkFleetInstall quantifies the
// tracing-on overhead; BENCH_pr6.json records both. (Tracing-off
// overhead is zero by construction — disabled spans are nil no-ops —
// which the DetectPair allocation gate pins in CI.)
func BenchmarkFleetInstallTraced(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	o := obs.NewObserver()
	o.Tracer.SetEnabled(true)
	f := New(Options{Shards: 64, Obs: o})
	var homeSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var ferr firstErr
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
			for _, app := range demo {
				if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
					ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
					return
				}
			}
		}
	})
	b.StopTimer()
	if ferr.err != nil {
		b.Fatal(ferr.err)
	}
	if total := o.Capture.Snapshot().Total; total == 0 {
		b.Fatal("tracing-enabled run captured no span trees")
	}
}

// BenchmarkFleetInstallSharedApps measures the pair-verdict cache on the
// fleet's hot path: each iteration is one new home installing the shared
// five-app demo catalog, in parallel across GOMAXPROCS goroutines. Every
// distinct app pair is solved once fleet-wide and every later home is
// served its verdicts from the shared cache, so marginal solver time per
// home goes to near zero. Run with -benchtime 1000x for the 1k-home
// configuration; at 100+ homes the run fails unless the verdict hit ratio
// is >= 0.99 and solver invocations are at least 5x below the cache-less
// projection.
func BenchmarkFleetInstallSharedApps(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	f := New(Options{Shards: 64})
	var homeSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var ferr firstErr
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
			for _, app := range demo {
				if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
					ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
					return
				}
			}
		}
	})
	b.StopTimer()
	if ferr.err != nil {
		b.Fatal(ferr.err)
	}

	// Cache-less projection: one home's solver bill with verdict sharing
	// off, times the number of homes the benchmark created. Per-home cost
	// is constant (same catalog, same order), so one home projects exactly.
	base := New(Options{Shards: 1, DisablePairVerdicts: true})
	for _, app := range demo {
		if _, err := base.Install(context.Background(), "baseline", app.Source, nil); err != nil {
			b.Fatalf("baseline install %s: %v", app.Name, err)
		}
	}
	homes := uint64(homeSeq.Load())
	projected := base.Metrics().Detectors.SolverCalls * homes

	pv := f.Verdicts().Stats()
	solverCalls := f.Metrics().Detectors.SolverCalls
	b.ReportMetric(pv.HitRate(), "pair-hit-ratio")
	b.ReportMetric(float64(solverCalls), "solver-calls")
	if solverCalls > 0 {
		b.ReportMetric(float64(projected)/float64(solverCalls), "solver-speedup")
	}

	if homes >= 100 {
		// The ideal ratio is (homes-1)/homes, exactly 0.99 at 100 homes —
		// no margin — so the strict 0.99 gate applies from 200 homes
		// (ideal 0.995) and smaller runs get a floor that tolerates a
		// stray re-miss (e.g. a panic-failed singleflight entry).
		minNum, minDen := uint64(98), uint64(100)
		if homes >= 200 {
			minNum, minDen = 99, 100
		}
		if pv.Hits*minDen < pv.Lookups*minNum {
			b.Fatalf("pair-verdict hit ratio = %.4f over %d homes, want >= %d/%d",
				pv.HitRate(), homes, minNum, minDen)
		}
		if solverCalls*5 > projected {
			b.Fatalf("solver calls = %d vs cache-less projection %d, want >= 5x reduction", solverCalls, projected)
		}
	}
}

// BenchmarkFleetInstallSharedAppsNoVerdictCache is the ablation contrast:
// same shared catalog, but every home re-solves its own pairs. Compare
// ns/op against BenchmarkFleetInstallSharedApps for the verdict-cache
// benefit (extraction stays shared in both, isolating the solver saving).
func BenchmarkFleetInstallSharedAppsNoVerdictCache(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	f := New(Options{Shards: 64, DisablePairVerdicts: true})
	var homeSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var ferr firstErr
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
			for _, app := range demo {
				if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
					ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
					return
				}
			}
		}
	})
	b.StopTimer()
	if ferr.err != nil {
		b.Fatal(ferr.err)
	}
	b.ReportMetric(float64(f.Metrics().Detectors.SolverCalls), "solver-calls")
}

// BenchmarkFleetInstallWAL measures the write-ahead-log overhead on the
// install hot path: the same per-home catalog install as
// BenchmarkFleetInstall, with every mutation appending an op record.
// The fsync-off sub-benchmark isolates the encode+append+frame cost
// (stable across machines — the CI benchjson gate compares it against
// the PR 8 no-WAL install baseline); fsync-always adds the per-record
// fsync a durability-strict deployment pays and is reported for
// information (its ns/op is storage hardware, not code).
func BenchmarkFleetInstallWAL(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	if len(demo) == 0 {
		b.Fatal("empty demo corpus")
	}
	for _, mode := range []struct {
		name  string
		fsync wal.Policy
	}{
		{"fsync-off", wal.FsyncOff},
		{"fsync-always", wal.FsyncAlways},
	} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := wal.Open(wal.Options{Dir: b.TempDir(), Fsync: mode.fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			f := New(Options{Shards: 64})
			f.AttachWAL(l)
			var homeSeq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var ferr firstErr
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
					for _, app := range demo {
						if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
							ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
							return
						}
					}
				}
			})
			b.StopTimer()
			if ferr.err != nil {
				b.Fatal(ferr.err)
			}
			if got, want := l.LastLSN(), uint64(homeSeq.Load())*uint64(len(demo)); got != want {
				b.Fatalf("wal holds %d records, want one per install (%d)", got, want)
			}
		})
	}
}

// BenchmarkFleetInstallNoCacheSharing is the contrast case: every home
// uses a private cache, so extraction re-runs per home — the single-home
// baseline the fleet design removes. Compare ns/op against
// BenchmarkFleetInstall for the cache benefit.
func BenchmarkFleetInstallNoCacheSharing(b *testing.B) {
	demo := corpus.ByCategory(corpus.Demo)
	var homeSeq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var ferr firstErr
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// A one-home fleet with its own cache: no cross-home reuse.
			f := New(Options{Shards: 1})
			id := fmt.Sprintf("home-%06d", homeSeq.Add(1))
			for _, app := range demo {
				if _, err := f.Install(context.Background(), id, app.Source, nil); err != nil {
					ferr.set(fmt.Errorf("%s: install %s: %w", id, app.Name, err))
					return
				}
			}
		}
	})
	if ferr.err != nil {
		b.Fatal(ferr.err)
	}
}

// restorePool is the sources restoreBenchFleet draws from: the demo and
// benign corpus.
func restorePool() []string {
	var pool []string
	for _, a := range corpus.All() {
		if a.Category == corpus.Demo || a.Category == corpus.Benign {
			pool = append(pool, a.Source)
		}
	}
	return pool
}

// restoreBenchFleet preloads homes homes of 12 apps each from the demo
// and benign corpus, driving every home through an install:reconfigure:
// accept mix of 8:1:1 (reconfigure keeps the app's bindings, accept
// takes one threat-log index), the shape of perfbench's install
// workloads.
func restoreBenchFleet(b testing.TB, homes int) *Fleet {
	b.Helper()
	pool := restorePool()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	f := New(Options{})
	for i := 0; i < homes; i++ {
		id := fmt.Sprintf("home-%04d", i)
		var names []string
		for _, app := range rng.Perm(len(pool))[:12] {
			// Draw from the mix until it says install.
			for len(names) > 0 {
				k := rng.Intn(10)
				if k < 8 {
					break
				}
				if k == 8 {
					if _, err := f.Reconfigure(ctx, id, names[rng.Intn(len(names))], nil); err != nil {
						b.Fatal(err)
					}
				} else if log, _ := f.Threats(id); len(log) > 0 {
					if err := f.AcceptByIndex(id, rng.Intn(len(log))); err != nil {
						b.Fatal(err)
					}
				}
			}
			r, err := f.Install(ctx, id, pool[app], nil)
			if err != nil {
				b.Fatal(err)
			}
			names = append(names, r.App.Name)
		}
	}
	return f
}

// BenchmarkRestoreHomes times the fleet's share of a homeguardd
// checkpoint for a 300-home fleet. restore is the daemon's checkpoint
// load: a fresh fleet and RestoreHomes into it, which merges the app
// table into the extraction cache and replays every home's ops, solving
// each pair verdict the homes need once. write is SnapshotHomes. ckpt-B
// is the homes section's size, which is all the checkpoint holds of the
// fleet.
func BenchmarkRestoreHomes(b *testing.B) {
	src := restoreBenchFleet(b, 300)
	var homes bytes.Buffer
	n, err := src.SnapshotHomes(&homes)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("restore", func(b *testing.B) {
		b.ReportMetric(float64(homes.Len()), "ckpt-B")
		for i := 0; i < b.N; i++ {
			got, err := New(Options{}).RestoreHomes(bytes.NewReader(homes.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if got != n {
				b.Fatalf("restored %d homes, want %d", got, n)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportMetric(float64(homes.Len()), "ckpt-B")
		for i := 0; i < b.N; i++ {
			if _, err := src.SnapshotHomes(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
