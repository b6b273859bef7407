package homeguard

// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index), plus ablation benches for the
// design choices: candidate filtering before solving, constraint-solving
// result reuse, and symbolic execution vs AST-grep-style extraction.

import (
	"context"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/envmodel"
	"homeguard/internal/experiments"
	"homeguard/internal/messaging"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// BenchmarkTable1Detection runs the seven category-coverage scenarios.
func BenchmarkTable1Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		for _, r := range rows {
			if !r.Detected {
				b.Fatalf("category %s undetected", r.Kind)
			}
		}
	}
}

// BenchmarkTable2RuleExtraction extracts ComfortTV (Listing 1 → Table II).
func BenchmarkTable2RuleExtraction(b *testing.B) {
	a, _ := corpus.Get("ComfortTV")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := symexec.Extract(a.Source, "")
		if err != nil || len(res.Rules.Rules) != 1 {
			b.Fatal("extraction failed")
		}
	}
}

// BenchmarkTable3Malicious extracts rules from the 18 malicious apps.
func BenchmarkTable3Malicious(b *testing.B) {
	apps := corpus.ByCategory(corpus.Malicious)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := symexec.Extract(a.Source, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8StoreAudit runs the full 90-app pairwise audit: one cold
// Apply on the store auditor (internal/audit), whose ~2200 candidate app
// pairs fan out over a work-stealing worker pool, one detector per
// worker, so the audit scales with GOMAXPROCS while producing the serial
// install sequence's findings. BenchmarkFig8StoreAuditSerial is the
// single-worker contrast run.
func BenchmarkFig8StoreAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8()
		if r.TotalThreats == 0 {
			b.Fatal("no threats found")
		}
	}
}

// BenchmarkFig8StoreAuditSerial pins the audit to one worker — the
// GOMAXPROCS=1-equivalent contrast for the scaling measurement.
func BenchmarkFig8StoreAuditSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8Workers(1)
		if r.TotalThreats == 0 {
			b.Fatal("no threats found")
		}
	}
}

// coldAudit is a full store audit: one Apply of every app on a fresh
// Auditor.
func coldAudit(b *testing.B, apps []audit.App) *audit.Revision {
	rev, err := audit.NewAuditor(audit.AuditorOptions{}).Apply(audit.Batch{Upserts: apps})
	if err != nil {
		b.Fatal(err)
	}
	if rev.Apps != len(apps) {
		b.Fatal("synthetic apps failed to install")
	}
	return rev
}

// BenchmarkStoreAuditSparse is the sublinear-detection scaling benchmark:
// a cold audit of a synthetic store with ~5% channel overlap (see
// experiments.SyntheticSparseApps) whose work items come from
// footprint-index postings, so candidate generation touches only the
// ~5% of the ~500k app pairs (at 1k apps) that share a channel.
func BenchmarkStoreAuditSparse(b *testing.B) {
	// The pool scales with n so per-app overlap stays constant (~50
	// counterpart candidates per app): the audit's work is then
	// near-linear in app count, not quadratic.
	for _, size := range []struct {
		tag  string
		n    int
		pool int
	}{{"1k", 1000, 80}, {"2k", 2000, 160}} {
		apps := experiments.SyntheticSparseApps(size.n, size.pool, 1)
		b.Run("index-"+size.tag, func(b *testing.B) {
			var last *audit.Revision
			for i := 0; i < b.N; i++ {
				last = coldAudit(b, apps)
			}
			st := last.Stats
			cross := len(apps) * (len(apps) - 1) / 2
			b.ReportMetric(float64(st.PairsIndexed), "cand-pairs")
			b.ReportMetric(float64(st.PairsIndexed)/float64(cross), "cand-frac")
			b.ReportMetric(float64(st.PairsSkippedByIndex), "skipped-rule-pairs")
			// Stats are per revision (each iteration audits a fresh
			// Auditor), so no division by b.N.
			b.ReportMetric(float64(st.SolverCalls), "solver-calls")
		})
	}
}

// BenchmarkIncrementalAudit is the churn benchmark: steady-state store
// maintenance on the 2k sparse synthetic corpus. "full-reaudit-2k"
// audits the whole store from scratch (one cold Apply) — the cost every
// store revision would pay without incremental state. "churn-1pct-2k"
// applies a 1% batch (20 reconfigured apps) to a warm Auditor that
// retains the footprint index, compiled rule sets and pair verdicts
// across revisions, so only pairs intersecting the changed footprints
// are re-solved. Findings parity between the two paths is pinned
// byte-for-byte by TestIncrementalMatchesFullAudit; BENCH_pr8.json
// records the gate baselines.
func BenchmarkIncrementalAudit(b *testing.B) {
	const (
		n     = 2000
		pool  = 160
		churn = n / 100
	)
	base := experiments.SyntheticSparseApps(n, pool, 1)
	b.Run("full-reaudit-2k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldAudit(b, base)
		}
	})
	b.Run("churn-1pct-2k", func(b *testing.B) {
		// Same app names, different device picks and trigger states: each
		// toggle between the two generations really changes footprints.
		variant := experiments.SyntheticSparseApps(n, pool, 2)
		aud := audit.NewAuditor(audit.AuditorOptions{})
		if _, err := aud.Apply(audit.Batch{Upserts: base}); err != nil {
			b.Fatal(err)
		}
		onVariant := make([]bool, n)
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := i * churn % n
			batch := audit.Batch{Upserts: make([]audit.App, 0, churn)}
			for j := start; j < start+churn; j++ {
				k := j % n
				if onVariant[k] {
					batch.Upserts = append(batch.Upserts, base[k])
				} else {
					batch.Upserts = append(batch.Upserts, variant[k])
				}
				onVariant[k] = !onVariant[k]
			}
			rev, err := aud.Apply(batch)
			if err != nil {
				b.Fatal(err)
			}
			if rev.Apps != n {
				b.Fatalf("store shrank to %d apps", rev.Apps)
			}
			pairs += rev.Pairs
		}
		b.ReportMetric(float64(pairs)/float64(b.N), "pairs-rechecked/op")
	})
}

// BenchmarkFleetReconfigure measures the steady-state reconfigure path of
// a populated home: the detector re-solves only the pairs whose footprint
// intersects the changed app (index candidates), and the fleet splices
// the result into the retained per-home threat ledger instead of
// recomputing the home.
func BenchmarkFleetReconfigure(b *testing.B) {
	f := NewFleet(FleetOptions{})
	apps := corpus.StoreAudit()[:40]
	var target string
	for i, a := range apps {
		res, err := f.Install(context.Background(), "bench-home", a.Source, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == len(apps)/2 {
			target = res.App.Name
		}
	}
	m0 := f.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Reconfigure(context.Background(), "bench-home", target, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := f.Metrics()
	b.ReportMetric(float64(m.Detectors.PairsIndexed-m0.Detectors.PairsIndexed)/float64(b.N), "cand-pairs/op")
	if _, err := f.ActiveThreats("bench-home"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig9DetectionOverhead measures all-kinds detection on the
// canonical pairs with solving-result reuse enabled.
func BenchmarkFig9DetectionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9()
		if r.CacheHits == 0 {
			b.Fatal("reuse did not engage")
		}
	}
}

// BenchmarkRuleExtractionPerApp is the Sec. VIII-C mean-extraction-time
// measurement (paper: 1341 ms/app on an i7-6700 under the Groovy
// compiler; ours runs the native extractor).
func BenchmarkRuleExtractionPerApp(b *testing.B) {
	var apps []corpus.App
	apps = append(apps, corpus.ByCategory(corpus.Demo)...)
	apps = append(apps, corpus.ByCategory(corpus.Benign)...)
	apps = append(apps, corpus.ByCategory(corpus.Notification)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		if _, err := symexec.Extract(a.Source, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleFileSize measures rule-file serialization (paper: ≈6.2 KB
// mean rule file).
func BenchmarkRuleFileSize(b *testing.B) {
	a, _ := corpus.Get("MakeItSo")
	res, err := symexec.Extract(a.Source, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := rule.MarshalRuleSet(res.Rules)
		if err != nil || len(buf) == 0 {
			b.Fatal("marshal failed")
		}
	}
}

// BenchmarkConfigCollectionSMS / HTTP reproduce the messaging latency
// comparison; the reported metric is simulated end-to-end latency, the
// benchmark time is the simulation cost.
func BenchmarkConfigCollectionSMS(b *testing.B) {
	inbox := &messaging.Inbox{}
	ch := messaging.NewSMS("5551234", inbox, 1)
	var total int64
	for i := 0; i < b.N; i++ {
		d, err := ch.Send("homeguard://appname:X/")
		if err != nil {
			b.Fatal(err)
		}
		total += int64(d.Latency)
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "simulated-ms/delivery")
}

func BenchmarkConfigCollectionHTTP(b *testing.B) {
	inbox := &messaging.Inbox{}
	ch := messaging.NewHTTP("token", inbox, 1)
	var total int64
	for i := 0; i < b.N; i++ {
		d, err := ch.Send("homeguard://appname:X/")
		if err != nil {
			b.Fatal(err)
		}
		total += int64(d.Latency)
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "simulated-ms/delivery")
}

// ---------- ablation benches (DESIGN.md design decisions) ----------

// BenchmarkAblationFiltering compares detection with the M_AR/M_GC
// candidate pre-filters against solve-everything, over a slice of the
// store corpus (the filters reject most of the pairwise work).
func BenchmarkAblationFiltering(b *testing.B) {
	apps := corpus.StoreAudit()[:20]
	var installed []*detect.InstalledApp
	for _, a := range apps {
		res, err := symexec.Extract(a.Source, "")
		if err != nil {
			b.Fatal(err)
		}
		installed = append(installed, detect.NewInstalledApp(res, experiments.StoreConfig(res)))
	}
	run := func(b *testing.B, opts detect.Options) {
		for i := 0; i < b.N; i++ {
			d := detect.New(opts)
			for _, ia := range installed {
				d.Install(ia)
			}
		}
	}
	b.Run("with-filtering", func(b *testing.B) { run(b, detect.Options{}) })
	b.Run("without-filtering", func(b *testing.B) { run(b, detect.Options{DisableFiltering: true}) })
}

// BenchmarkAblationReuse compares solving-result reuse on the
// Self-Disabling scenario (where CT reuses the AR merge).
func BenchmarkAblationReuse(b *testing.B) {
	install := func(opts detect.Options) *detect.Detector {
		d := detect.New(opts)
		cfg1 := detect.NewConfig()
		cfg1.Devices["ac1"] = "dev-ac"
		cfg1.DeviceTypes["ac1"] = envmodel.AirConditioner
		d.Install(detect.NewInstalledApp(experiments.MustExtract("ItsTooHot"), cfg1))
		cfg2 := detect.NewConfig()
		cfg2.Devices["heavyLoads"] = "dev-ac"
		cfg2.DeviceTypes["heavyLoads"] = envmodel.AirConditioner
		d.Install(detect.NewInstalledApp(experiments.MustExtract("EnergySaver"), cfg2))
		return d
	}
	b.Run("with-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := install(detect.Options{})
			if d.Stats().SolverCacheHits == 0 {
				b.Fatal("no reuse")
			}
		}
	})
	b.Run("without-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			install(detect.Options{DisableReuse: true})
		}
	})
}

// BenchmarkExtractionCorpus sweeps the whole corpus through the extractor
// (the Sec. VIII-B 146-app run; ours analyses the 122 non-web-service
// corpus apps + 22 web/malicious separately).
func BenchmarkExtractionCorpus(b *testing.B) {
	apps := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := symexec.Extract(a.Source, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(apps)), "apps/op")
}

// BenchmarkInstallReport measures the full public-API install flow
// (extraction + detection + report rendering) for one app pair.
func BenchmarkInstallReport(b *testing.B) {
	comfort, _ := corpus.Get("ComfortTV")
	cold, _ := corpus.Get("ColdDefender")
	for i := 0; i < b.N; i++ {
		home := NewHome(Options{})
		cfg1 := NewConfig()
		cfg1.Devices["tv1"] = "dev-tv"
		cfg1.Devices["window1"] = "dev-window"
		if _, err := home.InstallApp(comfort.Source, cfg1); err != nil {
			b.Fatal(err)
		}
		cfg2 := NewConfig()
		cfg2.Devices["tv1"] = "dev-tv"
		cfg2.Devices["window1"] = "dev-window"
		res, err := home.InstallApp(cold.Source, cfg2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Threats) == 0 {
			b.Fatal("race not reported")
		}
	}
}
