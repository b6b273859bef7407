package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/symexec"
)

func mustSource(t testing.TB, name string) string {
	t.Helper()
	app, ok := corpus.Get(name)
	if !ok {
		t.Fatalf("corpus app %s missing", name)
	}
	return app.Source
}

// TestFleetInstallDetectsThreat re-runs the Fig. 3 ComfortTV/ColdDefender
// race through the fleet path and checks the single-home behavior is
// preserved: the second install reports interference.
func TestFleetInstallDetectsThreat(t *testing.T) {
	f := New(Options{})
	r1, err := f.Install(context.Background(), "home-1", mustSource(t, "ComfortTV"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rules) == 0 {
		t.Fatal("ComfortTV extracted no rules")
	}
	if len(r1.Threats) != 0 {
		t.Errorf("first install reported %d threats in an empty home", len(r1.Threats))
	}
	r2, err := f.Install(context.Background(), "home-1", mustSource(t, "ColdDefender"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Threats) == 0 {
		t.Fatal("ColdDefender vs ComfortTV reported no threats; expected the Fig. 3 interference")
	}
	if r2.Report == "" {
		t.Error("empty install report")
	}

	// The home's threat log matches what installs reported.
	ts, err := f.Threats("home-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(r1.Threats)+len(r2.Threats) {
		t.Errorf("Threats() = %d entries, want %d", len(ts), len(r1.Threats)+len(r2.Threats))
	}

	apps, err := f.Apps("home-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 {
		t.Errorf("Apps() = %v, want 2 apps", apps)
	}

	// Homes are isolated: the same pair in another home starts clean.
	r3, err := f.Install(context.Background(), "home-2", mustSource(t, "ComfortTV"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Threats) != 0 {
		t.Errorf("fresh home reported %d threats on first install", len(r3.Threats))
	}
}

// TestFleetDuplicateInstall checks that a retried install cannot
// duplicate an app inside a home.
func TestFleetDuplicateInstall(t *testing.T) {
	f := New(Options{})
	if _, err := f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), nil); err != nil {
		t.Fatal(err)
	}
	_, err := f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), nil)
	if !errors.Is(err, ErrAppInstalled) {
		t.Fatalf("second install of the same app: err = %v, want ErrAppInstalled", err)
	}
	apps, _ := f.Apps("h")
	if len(apps) != 1 {
		t.Errorf("home has %d apps after duplicate install, want 1", len(apps))
	}
	m := f.Metrics()
	if m.InstallConflicts != 1 {
		t.Errorf("InstallConflicts = %d, want 1", m.InstallConflicts)
	}
	if m.InstallErrors != 0 {
		t.Errorf("InstallErrors = %d after a duplicate (client conflict), want 0", m.InstallErrors)
	}
}

// TestFleetReconfigureNilKeepsConfig checks the nil-config contract:
// Reconfigure(nil) re-runs detection under the app's CURRENT bindings
// rather than silently resetting them to type-level identity.
func TestFleetReconfigureNilKeepsConfig(t *testing.T) {
	bindings := func(tv, window string) *detect.Config {
		cfg := detect.NewConfig()
		cfg.Devices["tv1"] = tv
		cfg.Devices["window1"] = window
		return cfg
	}
	f := New(Options{})
	if _, err := f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), bindings("tv-A", "win-1")); err != nil {
		t.Fatal(err)
	}
	// Both apps bound to the SAME window: the pair races on one actuator
	// (AR). Dropping ColdDefender's binding would turn that into a
	// cross-device goal conflict instead, so the kinds expose whether
	// the bindings survive.
	res, err := f.Install(context.Background(), "h", mustSource(t, "ColdDefender"), bindings("tv-A", "win-1"))
	if err != nil {
		t.Fatal(err)
	}
	boundKinds := kindsOf(res.Threats)

	rr, err := f.Reconfigure(context.Background(), "h", "ColdDefender", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kindsOf(rr.Threats); got != boundKinds {
		t.Errorf("Reconfigure(nil) threats = %s, want the configured result %s (bindings were dropped)", got, boundKinds)
	}
	// An explicit empty config DOES reset ColdDefender's bindings. The
	// reference is a home where ColdDefender was installed unbound from
	// the start (ComfortTV keeps its bindings in both).
	rr, err = f.Reconfigure(context.Background(), "h", "ColdDefender", detect.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Options{})
	if _, err := ref.Install(context.Background(), "h", mustSource(t, "ComfortTV"), bindings("tv-A", "win-1")); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Install(context.Background(), "h", mustSource(t, "ColdDefender"), detect.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := kindsOf(rr.Threats); got != kindsOf(want.Threats) {
		t.Errorf("Reconfigure(empty) threats = %s, want unbound-install result %s", got, kindsOf(want.Threats))
	}
	if kindsOf(want.Threats) == boundKinds {
		t.Errorf("test vacuous: unbound result %s equals bound result %s", kindsOf(want.Threats), boundKinds)
	}
}

func kindsOf(ts []detect.Threat) string {
	ks := make([]string, len(ts))
	for i, t := range ts {
		ks[i] = string(t.Kind)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestFleetAcceptByIndex(t *testing.T) {
	f := New(Options{})
	f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), nil)
	res, _ := f.Install(context.Background(), "h", mustSource(t, "ColdDefender"), nil)
	if len(res.Threats) == 0 {
		t.Fatal("no threats to accept")
	}
	if res.ThreatLogBase != 0 {
		t.Errorf("ThreatLogBase = %d, want 0 for the first threats in the home", res.ThreatLogBase)
	}
	if err := f.AcceptByIndex("h", res.ThreatLogBase); err != nil {
		t.Fatalf("AcceptByIndex(valid): %v", err)
	}
	if err := f.AcceptByIndex("h", len(res.Threats)); !errors.Is(err, ErrBadThreatIndex) {
		t.Errorf("AcceptByIndex(out of range): err = %v, want ErrBadThreatIndex", err)
	}
	if err := f.AcceptByIndex("h", -1); !errors.Is(err, ErrBadThreatIndex) {
		t.Errorf("AcceptByIndex(-1): err = %v, want ErrBadThreatIndex", err)
	}
	if err := f.AcceptByIndex("ghost", 0); !errors.Is(err, ErrUnknownHome) {
		t.Errorf("AcceptByIndex(unknown home): err = %v, want ErrUnknownHome", err)
	}
}

func TestFleetUnknownHomeAndApp(t *testing.T) {
	f := New(Options{})
	if _, err := f.Threats("nope"); err == nil {
		t.Error("Threats(unknown home) did not fail")
	}
	if _, err := f.Reconfigure(context.Background(), "nope", "App", nil); err == nil {
		t.Error("Reconfigure(unknown home) did not fail")
	}
	if err := f.AcceptByIndex("nope", 0); err == nil {
		t.Error("AcceptByIndex(unknown home) did not fail")
	}
	if _, err := f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Reconfigure(context.Background(), "h", "NoSuchApp", nil); err == nil {
		t.Error("Reconfigure(unknown app) did not fail")
	}
}

func TestFleetReconfigure(t *testing.T) {
	f := New(Options{})
	if _, err := f.Install(context.Background(), "h", mustSource(t, "ComfortTV"), nil); err != nil {
		t.Fatal(err)
	}
	res, err := f.Install(context.Background(), "h", mustSource(t, "ColdDefender"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running detection under a fresh (empty) config must reproduce
	// the type-level threats.
	rr, err := f.Reconfigure(context.Background(), "h", res.App.Name, detect.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Threats) != len(res.Threats) {
		t.Errorf("Reconfigure found %d threats, install found %d", len(rr.Threats), len(res.Threats))
	}
	// Reconfigure threats are appended to the log after the install ones.
	if rr.ThreatLogBase != len(res.Threats) {
		t.Errorf("Reconfigure logBase = %d, want %d", rr.ThreatLogBase, len(res.Threats))
	}
	if err := f.AcceptByIndex("h", rr.ThreatLogBase); err != nil {
		t.Errorf("accepting a reconfigure-reported threat by index: %v", err)
	}
	m := f.Metrics()
	if m.Reconfigures != 1 {
		t.Errorf("Reconfigures = %d, want 1", m.Reconfigures)
	}
	// Reconfigure re-detections must not inflate per-kind counts.
	var totalKinds uint64
	for _, n := range m.ThreatsByKind {
		totalKinds += n
	}
	if totalKinds != uint64(len(res.Threats)) {
		t.Errorf("ThreatsByKind total = %d after reconfigure, want install-only %d", totalKinds, len(res.Threats))
	}
}

func TestFleetInstallError(t *testing.T) {
	f := New(Options{})
	if _, err := f.Install(context.Background(), "h", "not groovy {{{", nil); err == nil {
		t.Fatal("install of unparseable source did not fail")
	}
	m := f.Metrics()
	if m.InstallErrors != 1 || m.Installs != 0 {
		t.Errorf("metrics = %+v, want 1 install error and 0 installs", m)
	}
	// A failed extraction must not create the home.
	if n := f.NumHomes(); n != 0 {
		t.Errorf("NumHomes() = %d after failed install, want 0", n)
	}
}

// TestFleetInstallNoDefinition: a source without a definition(name: ...)
// declares no app, so its install fails with symexec.ErrNoDefinition
// (counted as an install error) instead of installing an app named "app".
func TestFleetInstallNoDefinition(t *testing.T) {
	f := New(Options{})
	for _, src := range []string{"{}", "", "x = 1", "preferences {}"} {
		if _, err := f.Install(context.Background(), "h", src, nil); !errors.Is(err, symexec.ErrNoDefinition) {
			t.Errorf("install of %q: %v, want ErrNoDefinition", src, err)
		}
	}
	if n := f.NumHomes(); n != 0 {
		t.Errorf("NumHomes() = %d after failed installs, want 0", n)
	}
	if m := f.Metrics(); m.InstallErrors != 4 || m.Installs != 0 {
		t.Errorf("metrics = %+v, want 4 install errors and 0 installs", m)
	}
}

// TestFleetParallelInstalls drives many homes concurrently (run under
// -race in CI): every home installs the same app set, extraction runs
// once per distinct app, and each home ends with the full set installed.
func TestFleetParallelInstalls(t *testing.T) {
	apps := []string{"ComfortTV", "ColdDefender", "CatchLiveShow", "BurglarFinder", "NightCare"}
	sources := make([]string, len(apps))
	for i, n := range apps {
		sources[i] = mustSource(t, n)
	}
	homes := 1000
	if testing.Short() {
		homes = 64
	}

	f := New(Options{Shards: 32})
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

	if n := f.NumHomes(); n != homes {
		t.Fatalf("NumHomes() = %d, want %d", n, homes)
	}
	cs := f.Cache().Stats()
	if int(cs.Misses) != len(apps) {
		t.Errorf("cache misses = %d, want exactly one extraction per distinct app (%d)", cs.Misses, len(apps))
	}
	if wantHits := uint64(homes*len(apps) - len(apps)); cs.Hits != wantHits {
		t.Errorf("cache hits = %d, want %d", cs.Hits, wantHits)
	}
	m := f.Metrics()
	if m.Installs != uint64(homes*len(apps)) {
		t.Errorf("Installs = %d, want %d", m.Installs, homes*len(apps))
	}
	if m.InstallP50 == 0 || m.InstallP99 == 0 || m.InstallP50 > m.InstallP99 {
		t.Errorf("latency quantiles p50=%v p99=%v look wrong", m.InstallP50, m.InstallP99)
	}
	// Every home saw the same app pairs, so the per-kind totals must be
	// an exact per-home multiple.
	for kind, n := range m.ThreatsByKind {
		if n%uint64(homes) != 0 {
			t.Errorf("threat kind %s count %d is not a multiple of %d homes", kind, n, homes)
		}
	}
	ids := f.HomeIDs()
	if len(ids) != homes {
		t.Fatalf("HomeIDs() returned %d ids, want %d", len(ids), homes)
	}
	for _, probe := range []int{0, homes / 2, homes - 1} {
		got, err := f.Apps(ids[probe])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(apps) {
			t.Errorf("home %s has %d apps, want %d", ids[probe], len(got), len(apps))
		}
	}
}

// TestFleetSharedCacheAcrossFleets checks that a caller-provided cache is
// reused rather than replaced.
func TestFleetSharedCacheAcrossFleets(t *testing.T) {
	f1 := New(Options{})
	if _, err := f1.Install(context.Background(), "a", mustSource(t, "ComfortTV"), nil); err != nil {
		t.Fatal(err)
	}
	f2 := New(Options{Cache: f1.Cache()})
	if _, err := f2.Install(context.Background(), "b", mustSource(t, "ComfortTV"), nil); err != nil {
		t.Fatal(err)
	}
	if s := f1.Cache().Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("shared cache stats = %+v, want 1 miss / 1 hit across fleets", s)
	}
}

// TestInstallBatch covers the parallel-extraction batch install: results
// in input order, duplicate-app and parse errors in their slots, and all
// extractions served through the shared cache.
func TestInstallBatch(t *testing.T) {
	f := New(Options{})
	a1, _ := corpus.Get("ComfortTV")
	a2, _ := corpus.Get("ColdDefender")
	items := []BatchItem{
		{Source: a1.Source},
		{Source: "def broken( {"},
		{Source: a2.Source},
		{Source: a1.Source}, // duplicate of item 0 in the same home
	}
	out := f.InstallBatch(context.Background(), "home-batch", items)
	if len(out) != 4 {
		t.Fatalf("got %d results, want 4", len(out))
	}
	if out[0].Err != nil || out[0].Result == nil {
		t.Fatalf("item 0: unexpected error %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Fatal("item 1: want parse error")
	}
	if out[2].Err != nil {
		t.Fatalf("item 2: unexpected error %v", out[2].Err)
	}
	if !errors.Is(out[3].Err, ErrAppInstalled) {
		t.Fatalf("item 3: want ErrAppInstalled, got %v", out[3].Err)
	}
	apps, err := f.Apps("home-batch")
	if err != nil || len(apps) != 2 {
		t.Fatalf("installed apps = %v (%v), want 2", apps, err)
	}
	if st := f.Cache().Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("batch did not go through the shared cache: %+v", st)
	}
}
