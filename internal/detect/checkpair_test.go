package detect

import (
	"errors"
	"testing"

	"homeguard/internal/solver"
	"homeguard/internal/symexec"
)

// TestCheckPairSurfacesSearchLimit: when the solver budget is exhausted
// mid pair-check, the verdict must degrade loudly — CheckPair returns an
// error wrapping solver.ErrSearchLimit, the conservative threat is still
// reported (never a silent "no threat"), and the stats record the
// degradation.
func TestCheckPairSurfacesSearchLimit(t *testing.T) {
	extract := func(src string) *InstalledApp {
		res, err := symexec.Extract(src, "")
		if err != nil {
			t.Fatalf("extract: %v", err)
		}
		return NewInstalledApp(res, sharedLightConfig())
	}
	on := extract(lockSrc)      // light1.on() at app touch
	off := extract(autoLockSrc) // light1.off() at app touch

	// A node cap of 1 exhausts the budget on the very first search node of
	// the AR overlap query.
	d := New(Options{SolverNodeCap: 1})
	threats, err := d.CheckPair(on, on.Rules.Rules[0], off, off.Rules.Rules[0])
	if !errors.Is(err, solver.ErrSearchLimit) {
		t.Fatalf("CheckPair error = %v, want solver.ErrSearchLimit", err)
	}
	if hasKind(threats, ActuatorRace) == nil {
		t.Fatalf("budget exhaustion must keep the conservative AR verdict, got %v", threats)
	}
	if d.Stats().SearchLimitHits == 0 {
		t.Fatal("SearchLimitHits not recorded")
	}

	// DetectPair keeps the legacy silent-conservative behavior, and a
	// detector with the default budget reports the same pair cleanly.
	d2 := New(Options{})
	threats2, err := d2.CheckPair(on, on.Rules.Rules[0], off, off.Rules.Rules[0])
	if err != nil {
		t.Fatalf("default budget CheckPair: %v", err)
	}
	if hasKind(threats2, ActuatorRace) == nil {
		t.Fatalf("AR not found under default budget: %v", threats2)
	}
	if d2.Stats().SearchLimitHits != 0 {
		t.Fatal("unexpected SearchLimitHits under default budget")
	}

	// Degradation is reported on every call: a repeat CheckPair on the
	// same detector must keep reporting it, not launder the pair into a
	// clean result.
	d3 := New(Options{SolverNodeCap: 1})
	if _, err := d3.CheckPair(on, on.Rules.Rules[0], off, off.Rules.Rules[0]); !errors.Is(err, solver.ErrSearchLimit) {
		t.Fatalf("want ErrSearchLimit, got %v", err)
	}
	if _, err := d3.CheckPair(on, on.Rules.Rules[0], off, off.Rules.Rules[0]); !errors.Is(err, solver.ErrSearchLimit) {
		t.Fatalf("repeat budget-degraded check must re-surface ErrSearchLimit, got %v", err)
	}
}
