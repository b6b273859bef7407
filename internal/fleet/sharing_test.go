package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"homeguard/internal/corpus"
	"homeguard/internal/detect"
)

// homeApps returns the installed app instances of one home.
func homeApps(t *testing.T, f *Fleet, id string) []*detect.InstalledApp {
	t.Helper()
	h := f.lookup(id)
	if h == nil {
		t.Fatalf("no home %s", id)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*detect.InstalledApp(nil), h.det.Apps()...)
}

// threatBytes renders a threat list for comparison.
func threatBytes(t *testing.T, ts []detect.Threat) []byte {
	t.Helper()
	b, err := detect.MarshalThreats(ts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedAppsAcrossHomes: two homes that install one source under one
// config hold the same *InstalledApp, and reconfiguring it in one home
// leaves the other home's app, threat log and ledger unchanged.
func TestSharedAppsAcrossHomes(t *testing.T) {
	f := New(Options{})
	ctx := context.Background()
	for _, id := range []string{"h1", "h2"} {
		for _, name := range []string{"ComfortTV", "ColdDefender"} {
			if _, err := f.Install(ctx, id, mustSource(t, name), bindingsFor("tv-A", "win-1")); err != nil {
				t.Fatal(err)
			}
		}
	}
	a1, a2 := homeApps(t, f, "h1"), homeApps(t, f, "h2")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("app %d: homes hold different instances of one source and config", i)
		}
	}
	log2, _ := f.Threats("h2")
	active2, _ := f.ActiveThreats("h2")
	if len(active2) == 0 {
		t.Fatal("precondition: the shared window must interfere")
	}

	if _, err := f.Reconfigure(ctx, "h1", "ColdDefender", bindingsFor("tv-A", "win-OTHER")); err != nil {
		t.Fatal(err)
	}
	if got := homeApps(t, f, "h1")[1]; got == a1[1] {
		t.Error("reconfigure left h1's slot on the old instance")
	}
	if got := homeApps(t, f, "h2"); got[0] != a2[0] || got[1] != a2[1] {
		t.Error("reconfigure in h1 swapped h2's apps")
	}
	if a2[1].Config.Devices["window1"] != "win-1" {
		t.Errorf("reconfigure in h1 rewrote the shared instance's config: %v", a2[1].Config.Devices)
	}
	logAfter, _ := f.Threats("h2")
	activeAfter, _ := f.ActiveThreats("h2")
	if !bytes.Equal(threatBytes(t, log2), threatBytes(t, logAfter)) {
		t.Error("reconfigure in h1 changed h2's threat log")
	}
	if !bytes.Equal(threatBytes(t, active2), threatBytes(t, activeAfter)) {
		t.Error("reconfigure in h1 changed h2's ledger")
	}
}

// TestSharedAppsConcurrent runs installs and reconfigures of the same
// sources under the same configs in 8 homes at once (run it under
// -race): every home shares the fleet's interned apps and cached verdict
// slices, and each ends with the threat log and ledger a serial run of
// its own ops gives.
func TestSharedAppsConcurrent(t *testing.T) {
	const homes = 8
	demo := corpus.ByCategory(corpus.Demo)
	cfgs := []*detect.Config{nil, bindingsFor("tv-A", "win-1"), bindingsFor("tv-A", "win-2")}
	run := func(f *Fleet, h int) error {
		ctx := context.Background()
		id := fmt.Sprintf("home-%d", h)
		rng := rand.New(rand.NewSource(int64(h)))
		for _, app := range demo {
			if _, err := f.Install(ctx, id, app.Source, cfgs[rng.Intn(len(cfgs))]); err != nil {
				return err
			}
		}
		for i := 0; i < 6; i++ {
			app := demo[rng.Intn(len(demo))]
			if _, err := f.Reconfigure(ctx, id, app.Name, cfgs[rng.Intn(len(cfgs))]); err != nil {
				return err
			}
		}
		return nil
	}
	live := New(Options{})
	var wg sync.WaitGroup
	errs := make([]error, homes)
	for h := 0; h < homes; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			errs[h] = run(live, h)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("home %d: %v", h, err)
		}
	}
	for h := 0; h < homes; h++ {
		serial := New(Options{})
		if err := run(serial, h); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("home-%d", h)
		for name, read := range map[string]func(*Fleet) ([]detect.Threat, error){
			"log":    func(f *Fleet) ([]detect.Threat, error) { return f.Threats(id) },
			"ledger": func(f *Fleet) ([]detect.Threat, error) { return f.ActiveThreats(id) },
		} {
			want, _ := read(serial)
			got, _ := read(live)
			if !bytes.Equal(threatBytes(t, got), threatBytes(t, want)) {
				t.Errorf("%s %s: concurrent run differs from the serial one", id, name)
			}
		}
	}
}

// flatModel is the threat log and ledger as a flat copy of every threat
// and a string-keyed ledger of log ranges: the representation the
// fleet's log of run references replaced, kept as the reference it must
// match.
type flatModel struct {
	log    []detect.Threat
	ledger []flatEntry
}

type flatEntry struct {
	a, b   string
	lo, hi int
}

func pairOf(t detect.Threat) (string, string) {
	a, b := t.R1.App, t.R2.App
	if b < a {
		a, b = b, a
	}
	return a, b
}

// groups splits log[lo:] into one entry per run of equal app pairs.
func (m *flatModel) groups(lo int) []flatEntry {
	var out []flatEntry
	for i := lo; i < len(m.log); {
		a, b := pairOf(m.log[i])
		j := i + 1
		for j < len(m.log) {
			if a2, b2 := pairOf(m.log[j]); a2 != a || b2 != b {
				break
			}
			j++
		}
		out = append(out, flatEntry{a, b, i, j})
		i = j
	}
	return out
}

func (m *flatModel) install(ts []detect.Threat) {
	lo := len(m.log)
	m.log = append(m.log, ts...)
	m.ledger = append(m.ledger, m.groups(lo)...)
}

func (m *flatModel) reconfigure(app string, ts []detect.Threat) {
	lo := len(m.log)
	m.log = append(m.log, ts...)
	fresh := m.groups(lo)
	used := make([]bool, len(fresh))
	var out []flatEntry
	for _, e := range m.ledger {
		if e.a != app && e.b != app {
			out = append(out, e)
			continue
		}
		for i, g := range fresh {
			if !used[i] && g.a == e.a && g.b == e.b {
				used[i] = true
				out = append(out, g)
				break
			}
		}
	}
	for i, g := range fresh {
		if !used[i] {
			out = append(out, g)
		}
	}
	m.ledger = out
}

func (m *flatModel) active() []detect.Threat {
	var out []detect.Threat
	for _, e := range m.ledger {
		out = append(out, m.log[e.lo:e.hi]...)
	}
	return out
}

// TestThreatLogMatchesFlatModel drives random installs, reconfigures,
// accepts and reads and checks, after every op, that the fleet's log of
// run references gives the Threats, ActiveThreats, log bases and
// accepted threats of a flat log with a string-keyed ledger.
func TestThreatLogMatchesFlatModel(t *testing.T) {
	ctx := context.Background()
	demo := corpus.ByCategory(corpus.Demo)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := New(Options{DisablePairVerdicts: seed%2 == 0})
		var m flatModel
		var accepted []detect.Threat
		order := rng.Perm(len(demo))
		var installed []string
		for step := 0; step < 40; step++ {
			switch k := rng.Intn(8); {
			case len(installed) < len(demo) && (len(installed) < 2 || k < 3):
				app := demo[order[len(installed)]]
				var cfg *detect.Config
				if rng.Intn(2) == 0 {
					cfg = randomConfig(t, f, rng, app.Source)
				}
				res, err := f.Install(ctx, "h", app.Source, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.ThreatLogBase != len(m.log) {
					t.Fatalf("seed %d step %d: install log base %d, want %d", seed, step, res.ThreatLogBase, len(m.log))
				}
				m.install(res.Threats)
				installed = append(installed, app.Name)
			case k < 5:
				app := installed[rng.Intn(len(installed))]
				var cfg *detect.Config
				if rng.Intn(3) > 0 {
					cfg = randomConfig(t, f, rng, mustSource(t, app))
				}
				res, err := f.Reconfigure(ctx, "h", app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.ThreatLogBase != len(m.log) {
					t.Fatalf("seed %d step %d: reconfigure log base %d, want %d", seed, step, res.ThreatLogBase, len(m.log))
				}
				m.reconfigure(app, res.Threats)
			case k < 7 && len(m.log) > 0:
				idx := []int{rng.Intn(len(m.log)), rng.Intn(len(m.log))}
				if err := f.AcceptByIndex("h", idx...); err != nil {
					t.Fatal(err)
				}
				accepted = append(accepted, m.log[idx[0]], m.log[idx[1]])
			default:
				if err := f.AcceptByIndex("h", len(m.log)); err == nil {
					t.Fatalf("seed %d step %d: accept past the log succeeded", seed, step)
				}
			}
			log, _ := f.Threats("h")
			active, _ := f.ActiveThreats("h")
			if !bytes.Equal(threatBytes(t, log), threatBytes(t, m.log)) {
				t.Fatalf("seed %d step %d: Threats differs from the flat log", seed, step)
			}
			if !bytes.Equal(threatBytes(t, active), threatBytes(t, m.active())) {
				t.Fatalf("seed %d step %d: ActiveThreats differs from the flat ledger", seed, step)
			}
			h := f.lookup("h")
			h.mu.Lock()
			got := append([]detect.Threat(nil), h.det.Accepted()...)
			h.mu.Unlock()
			if !bytes.Equal(threatBytes(t, got), threatBytes(t, accepted)) {
				t.Fatalf("seed %d step %d: accepted threats differ from the flat log's", seed, step)
			}
		}
	}
}
