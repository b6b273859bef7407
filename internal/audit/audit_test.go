package audit_test

import (
	"bytes"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/experiments"
	"homeguard/internal/symexec"
)

// serialAudit is the reference implementation: one detector, apps
// installed in order — exactly what examples/storeaudit and Fig8 did
// before the auditor existed. It returns the threats in install order.
func serialAudit(t *testing.T, apps []audit.App) ([]detect.Threat, detect.Stats) {
	t.Helper()
	return serialAuditWith(t, apps, detect.Options{})
}

// serialAuditWith is serialAudit under explicit detector options.
func serialAuditWith(t *testing.T, apps []audit.App, opts detect.Options) ([]detect.Threat, detect.Stats) {
	t.Helper()
	d := detect.New(opts)
	var out []detect.Threat
	for _, a := range apps {
		out = append(out, d.Install(detect.NewInstalledApp(a.Res, a.Config))...)
	}
	return out, d.Stats()
}

// auditApps extracts the corpus under the Fig. 8 store configuration.
func auditApps(t *testing.T, apps []corpus.App) []audit.App {
	t.Helper()
	out := make([]audit.App, 0, len(apps))
	for _, a := range apps {
		res, err := symexec.Extract(a.Source, "")
		if err != nil {
			t.Fatalf("extract %s: %v", a.Name, err)
		}
		out = append(out, audit.App{Res: res, Config: experiments.StoreConfig(res)})
	}
	return out
}

// TestParallelMatchesSerial pins the full-audit contract on the Fig. 8
// corpus: one Apply of every app on a fresh Auditor reports the serial
// install sequence's threats byte for byte, in the same order, and the
// same detector counters — index work included — at any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	apps := auditApps(t, corpus.StoreAudit())
	serial, want := serialAudit(t, apps)
	wantThreats := marshal(t, serial)

	for _, workers := range []int{1, 2, 4, 8} {
		rev, err := audit.NewAuditor(audit.AuditorOptions{Workers: workers}).Apply(audit.Batch{Upserts: apps})
		if err != nil {
			t.Fatalf("workers=%d: apply: %v", workers, err)
		}
		if got := marshal(t, findingThreats(rev.Added)); !bytes.Equal(got, wantThreats) {
			t.Fatalf("workers=%d: cold apply diverged from serial:\ngot:\n%s\nwant:\n%s", workers, got, wantThreats)
		}
		got := rev.Stats
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"PairsChecked", got.PairsChecked, want.PairsChecked},
			{"PairsPruned", got.PairsPruned, want.PairsPruned},
			{"PairsIndexed", got.PairsIndexed, want.PairsIndexed},
			{"PairsSkippedByIndex", got.PairsSkippedByIndex, want.PairsSkippedByIndex},
			{"SolverCalls", got.SolverCalls, want.SolverCalls},
			{"SolverCacheHits", got.SolverCacheHits, want.SolverCacheHits},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d: %s = %d, serial %d", workers, c.name, c.got, c.want)
			}
		}
		for _, k := range detect.AllKinds {
			if got.Found[k] != want.Found[k] {
				t.Errorf("workers=%d: Found[%s] = %d, serial %d", workers, k, got.Found[k], want.Found[k])
			}
		}
	}
}

// TestIndexedAuditMatchesGrid pins the index contract on the Fig. 8
// corpus: the Auditor, whose pair work comes from footprint-index
// postings, reports byte-identical findings — same threats, same order —
// as the full n·(n−1)/2 rule-pair grid (a serial detector with pruning
// off), and every grid pair is accounted for as either checked or pruned.
func TestIndexedAuditMatchesGrid(t *testing.T) {
	apps := auditApps(t, corpus.StoreAudit())
	grid, gridStats := serialAuditWith(t, apps, detect.Options{DisablePruning: true})
	if gridStats.PairsPruned != 0 || gridStats.PairsIndexed != 0 {
		t.Fatalf("grid run used the prune or index: pruned=%d indexed=%d",
			gridStats.PairsPruned, gridStats.PairsIndexed)
	}

	rev, err := audit.NewAuditor(audit.AuditorOptions{}).Apply(audit.Batch{Upserts: apps})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got, want := marshal(t, findingThreats(rev.Added)), marshal(t, grid); !bytes.Equal(got, want) {
		t.Fatalf("indexed audit diverged from grid audit:\nindexed:\n%s\ngrid:\n%s", got, want)
	}
	indexed := rev.Stats
	if got := indexed.PairsChecked + indexed.PairsPruned; got != gridStats.PairsChecked {
		t.Errorf("indexed checked+pruned = %d+%d = %d, grid checked %d",
			indexed.PairsChecked, indexed.PairsPruned, got, gridStats.PairsChecked)
	}
	if indexed.PairsIndexed == 0 || indexed.PairsSkippedByIndex == 0 {
		t.Errorf("index accounting inert: indexed=%d skipped=%d",
			indexed.PairsIndexed, indexed.PairsSkippedByIndex)
	}
	if indexed.PairsSkippedByIndex > indexed.PairsPruned {
		t.Errorf("PairsSkippedByIndex %d exceeds PairsPruned %d",
			indexed.PairsSkippedByIndex, indexed.PairsPruned)
	}
	for _, k := range detect.AllKinds {
		if indexed.Found[k] != gridStats.Found[k] {
			t.Errorf("Found[%s]: indexed %d, grid %d", k, indexed.Found[k], gridStats.Found[k])
		}
	}
}
