package detect

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// TestCompileSharedAcrossDetectors: two homes installing the same
// extraction result under content-equal configurations share one interned
// InstalledApp (and so one compilation), while a different configuration
// interns separately — and a content-equal rule set from a *separate*
// extraction never shares (threats must report the caller's own
// *rule.Rule pointers). Reconfigure swaps the slot to another instance and
// leaves the old one, which other homes may hold, unchanged.
func TestCompileSharedAcrossDetectors(t *testing.T) {
	res, err := symexec.Extract(lockSrc, "")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}

	d1, d2 := New(Options{}), New(Options{})
	a1 := NewInstalledApp(res, sharedLightConfig())
	a2 := NewInstalledApp(res, sharedLightConfig())
	d1.Install(a1)
	d2.Install(a2)
	if a1 != a2 || a1.Compiled() == nil {
		t.Fatal("same rule set + equal config must intern to one compiled instance")
	}

	// A nil config and an empty one are the same configuration.
	if NewInstalledApp(res, nil) != NewInstalledApp(res, NewConfig()) {
		t.Fatal("nil and empty configs must intern to one instance")
	}

	// The instance keeps its own copy of the config: the caller may reuse
	// its config afterwards without reaching the shared instance.
	cfg := NewConfig()
	cfg.Devices["light1"] = "dev-other"
	a3 := NewInstalledApp(res, cfg)
	cfg.Devices["light1"] = "dev-mutated"
	if a3.Config.Devices["light1"] != "dev-other" {
		t.Fatal("caller's later config write reached the interned instance")
	}
	if a3 == a1 || a3.Compiled() == a1.Compiled() {
		t.Fatal("different config must not share an instance")
	}

	// Content-identical rules from a second extraction: distinct pointers,
	// distinct instance, and threats keep referencing the installing app's
	// own rules.
	res2, err := symexec.Extract(lockSrc, "")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if a4 := NewInstalledApp(res2, sharedLightConfig()); a4 == a1 {
		t.Fatal("separate extractions must intern separately (rule identity)")
	}

	// Reconfigure swaps d1's slot to the instance of the new bindings;
	// d2's app (the same old instance) is untouched.
	newCfg := NewConfig()
	newCfg.Devices["light1"] = "dev-rewired"
	if _, err := d1.Reconfigure(a1.Info.Name, newCfg); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	after := d1.Apps()[0]
	if after == a1 || after != NewInstalledApp(res, newCfg) {
		t.Fatal("Reconfigure must swap the slot to the interned instance of the new config")
	}
	if d2.Apps()[0] != a1 || a1.Config.Devices["light1"] != sharedLightConfig().Devices["light1"] {
		t.Fatal("Reconfigure in one detector changed another detector's app")
	}
	// The swapped-in footprint reflects the new device binding.
	fp := footprintOf(t, after)
	if _, ok := fp.Writes["dev-rewired.switch"]; !ok {
		t.Fatalf("reconfigured footprint misses the new binding: %s", fp)
	}
}

// TestInternTableBounded: the intern table must not pin every rule set a
// long-running process ever installs, nor every configuration one rule
// set is ever installed under (a client reconfiguring one app with fresh
// values each time).
func TestInternTableBounded(t *testing.T) {
	check := func(what string) {
		t.Helper()
		interned.Lock()
		n, sets := interned.n, len(interned.m)
		held := 0
		for _, e := range interned.m {
			held += len(e.apps)
		}
		interned.Unlock()
		if n > internLimit || sets > internLimit || held != n {
			t.Errorf("%s: intern table holds %d (counted %d) instances of %d rule sets, limit is %d", what, held, n, sets, internLimit)
		}
	}
	for i := 0; i < internLimit+64; i++ {
		NewInstalledApp(&symexec.Result{Rules: &rule.RuleSet{}}, nil)
	}
	check("distinct rule sets")
	// One app under fresh device bindings: each instance also has its own
	// channel names, which are hashed, not tabled, so nothing else grows.
	res, err := symexec.Extract(comfortTVSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	bound := func(i int) *Config { return sharedTVWindowConfig(fmt.Sprintf("dev-tv-%d", i), "dev-window") }
	var first, last *InstalledApp
	for i := 0; i < internLimit+64; i++ {
		last = NewInstalledApp(res, bound(i))
		if first == nil {
			first = last
		}
	}
	check("one rule set, distinct device bindings")
	// Eviction only loses sharing: the newest instance is still the
	// shared one, and an evicted configuration is rebuilt equal.
	if NewInstalledApp(res, bound(internLimit+63)) != last {
		t.Error("the newest instance is not shared")
	}
	if again := NewInstalledApp(res, bound(0)); !bytes.Equal(again.comp.sig, first.comp.sig) || !slices.Equal(again.Channels(), first.Channels()) {
		t.Error("a rebuilt instance has a different signature or channels")
	}
	check("after rebuilds")
}

// TestSameInstanceTwiceIsCrossPair: one detector holding one interned
// instance in two slots pairs them as a cross-app pair (n*n rule pairs,
// each rule against its duplicate too), exactly as two separately built
// instances of the same source do.
func TestSameInstanceTwiceIsCrossPair(t *testing.T) {
	threatsOf := func(twice func() (*InstalledApp, *InstalledApp)) []string {
		d := New(Options{})
		a, b := twice()
		var out []string
		for _, ia := range []*InstalledApp{a, b} {
			for _, th := range d.Install(ia) {
				out = append(out, th.String())
			}
		}
		return out
	}
	res, err := symexec.Extract(comfortTVSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sharedTVWindowConfig("dev-tv", "dev-window")
	shared := threatsOf(func() (*InstalledApp, *InstalledApp) {
		ia := NewInstalledApp(res, cfg)
		return ia, ia
	})
	separate := threatsOf(func() (*InstalledApp, *InstalledApp) {
		res2, err := symexec.Extract(comfortTVSrc, "")
		if err != nil {
			t.Fatal(err)
		}
		return NewInstalledApp(res, cfg), NewInstalledApp(res2, cfg)
	})
	if len(shared) == 0 {
		t.Fatal("precondition: the duplicate install must report threats")
	}
	if len(shared) != len(separate) {
		t.Fatalf("one instance twice reports %d threats, two instances %d:\n%v\nvs\n%v",
			len(shared), len(separate), shared, separate)
	}
	for i := range shared {
		if shared[i] != separate[i] {
			t.Errorf("threat %d: %s vs %s", i, shared[i], separate[i])
		}
	}
}

// TestConfiguredDeviceNamesNotInterned: a canonical name over a
// configured device id is client input and stays out of the process-wide
// name table, while a type-level device name is shared through it.
func TestConfiguredDeviceNamesNotInterned(t *testing.T) {
	res, err := symexec.Extract(comfortTVSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	bound := NewInstalledApp(res, sharedTVWindowConfig("dev-tv-unshared", "dev-window"))
	v := canonVar(bound, rule.Var{Name: "tv1.switch"})
	if v.Name != "dev-tv-unshared.switch" {
		t.Fatalf("canonical name %q", v.Name)
	}
	if unsafe.StringData(v.Name) == unsafe.StringData(rule.InternDotted("dev-tv-unshared", "switch")) {
		t.Error("a name over a configured device id was interned")
	}
	typed := NewInstalledApp(res, nil)
	w := canonVar(typed, rule.Var{Name: "tv1.switch"})
	if unsafe.StringData(w.Name) != unsafe.StringData(canonVar(typed, rule.Var{Name: "tv1.switch"}).Name) {
		t.Error("a type-level device name was not interned")
	}
}
