package frontend_test

import (
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/detect"
	"homeguard/internal/fleet"
	"homeguard/internal/frontend"
)

// TestInstallDialogAllocs pins a dialog's allocations: the dialog
// string and the one slice of its line texts, whatever the number of
// rules, threats and chains. The dialog is the last install into a
// 12-app corpus home that reports several threats and chains.
func TestInstallDialogAllocs(t *testing.T) {
	var last *fleet.InstallResult
	f := fleet.New(fleet.Options{})
	fillHomes(t, f, 12, func(_, _ string, res *fleet.InstallResult, err error) {
		if err == nil && last == nil && len(res.Threats) >= 4 && len(res.Chains) >= 2 {
			last = res
		}
	}, func(string, string) {})
	if last == nil {
		t.Fatal("no corpus install reports four threats and two chains")
	}
	name, rules, threats, chains := last.App.Name, last.Rules, last.Threats, last.Chains
	if text, _ := frontend.InstallDialog(name, rules, threats, chains); text != last.Report {
		t.Fatal("the dialog rendered again differs from the install's report")
	}
	if raceEnabled {
		t.Skip("allocation counts need the pool a -race build thins out")
	}
	allocs := testing.AllocsPerRun(50, func() {
		frontend.InstallDialog(name, rules, threats, chains)
	})
	t.Logf("InstallDialog: %.1f allocations", allocs)
	if allocs > 2 {
		t.Errorf("InstallDialog of %d rules, %d threats and %d chains made %.1f allocations, want at most 2",
			len(rules), len(threats), len(chains), allocs)
	}
}

// TestThreatsOfAllocs pins a threat read's allocations: the []Threat it
// returns and the one string that holds every text and rule ID, for a
// 70-threat log of a 12-app corpus home.
func TestThreatsOfAllocs(t *testing.T) {
	var log []detect.Threat
	f := fleet.New(fleet.Options{})
	fillHomes(t, f, 12, func(string, string, *fleet.InstallResult, error) {}, func(home, _ string) {
		ts, err := f.Threats(home)
		if err != nil {
			t.Fatal(err)
		}
		if log == nil && len(ts) >= 70 {
			log = ts[:70]
		}
	})
	if log == nil {
		t.Fatal("no corpus home holds 70 threats")
	}
	got := api.ThreatsOf(log, 0)
	for i, th := range log {
		want := api.ThreatOf(th, i)
		if got[i] != want {
			t.Fatalf("threat %d: ThreatsOf gave %+v, ThreatOf %+v", i, got[i], want)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts need the pool a -race build thins out")
	}
	allocs := testing.AllocsPerRun(50, func() { api.ThreatsOf(log, 0) })
	t.Logf("ThreatsOf: %.1f allocations", allocs)
	if allocs > 2 {
		t.Errorf("ThreatsOf over %d threats made %.1f allocations, want at most 2", len(log), allocs)
	}
}
