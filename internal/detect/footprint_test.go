package detect

import (
	"slices"
	"testing"

	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// TestPruningDoesNotChangeFindings: the footprint prune is a pure
// optimization — disabling it must not change which threats the store
// audit reports, only how many pairs reach the solver path.
func TestPruningDoesNotChangeFindings(t *testing.T) {
	apps := storeSubset(t, 25)
	withP, stWith := runAudit(t, apps, Options{})
	apps2 := storeSubset(t, 25)
	withoutP, stWithout := runAudit(t, apps2, Options{DisablePruning: true})
	for _, k := range AllKinds {
		if withP[k] != withoutP[k] {
			t.Errorf("kind %s: pruned=%d unpruned=%d", k, withP[k], withoutP[k])
		}
	}
	if stWith.PairsPruned == 0 {
		t.Error("store audit pruned no pairs; the footprint index is inert")
	}
	if stWithout.PairsPruned != 0 {
		t.Errorf("DisablePruning still pruned %d pairs", stWithout.PairsPruned)
	}
	if stWithout.PairsChecked <= stWith.PairsChecked {
		t.Errorf("disabling pruning should increase pairs checked: %d vs %d",
			stWithout.PairsChecked, stWith.PairsChecked)
	}
}

// TestPruneSoundness is the prune's soundness property: every app pair
// the footprint index declares disjoint (and therefore skips) must be
// threat-free under the full solver path. The audit detector supplies the
// installed footprints; each pruned pair is then re-detected exhaustively
// via detectAppPair, which runs every rule pair through the Table I
// detections with no prune in front.
func TestPruneSoundness(t *testing.T) {
	apps := storeSubset(t, 40)
	d := New(Options{})
	for _, ia := range apps {
		d.Install(ia)
	}
	pruned := 0
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			a, b := apps[i], apps[j]
			if a.Channels().SharesChannel(b.Channels()) {
				continue
			}
			pruned++
			if ts := d.detectAppPair(a, b, false); len(ts) != 0 {
				t.Errorf("pair (%s, %s) pruned as disjoint but the solver path reports %d threat(s): %v",
					a.Info.Name, b.Info.Name, len(ts), ts)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no store pair had disjoint footprints; the property was never exercised")
	}
	t.Logf("verified %d pruned pairs threat-free under the full solver path", pruned)
}

// nopVerdicts routes pair detection through the verdict-cache path
// without caching anything.
type nopVerdicts struct{}

func (nopVerdicts) Detect(_ PairKey, compute func() []Threat) ([]Threat, bool) {
	return compute(), false
}

// TestPairKeyDeterministicAcrossDetectors: two homes that install the same
// sources with the same configurations and modes must derive the same
// verdict address — that equality is what lets the fleet share verdicts.
func TestPairKeyDeterministicAcrossDetectors(t *testing.T) {
	mkPair := func(t *testing.T, d *Detector, cfgB *Config) (*InstalledApp, *InstalledApp) {
		t.Helper()
		resA, err := symexec.Extract(comfortTVSrc, "")
		if err != nil {
			t.Fatal(err)
		}
		resB, err := symexec.Extract(coldDefenderSrc, "")
		if err != nil {
			t.Fatal(err)
		}
		a := NewInstalledApp(resA, sharedTVWindowConfig("dev-tv", "dev-window"))
		b := NewInstalledApp(resB, cfgB)
		d.Install(a)
		d.Install(b)
		return a, b
	}

	d1 := New(Options{Verdicts: nopVerdicts{}})
	a1, b1 := mkPair(t, d1, sharedTVWindowConfig("dev-tv", "dev-window"))
	d2 := New(Options{Verdicts: nopVerdicts{}})
	a2, b2 := mkPair(t, d2, sharedTVWindowConfig("dev-tv", "dev-window"))
	if d1.pairKey(a1, b1) != d2.pairKey(a2, b2) {
		t.Error("identical installs in two homes derived different pair keys")
	}

	// A different binding for one app must change the address: the configs
	// feed the formulas, so sharing across them would alias distinct
	// verdicts.
	d3 := New(Options{Verdicts: nopVerdicts{}})
	a3, b3 := mkPair(t, d3, sharedTVWindowConfig("dev-tv", "dev-OTHER-window"))
	if d1.pairKey(a1, b1) == d3.pairKey(a3, b3) {
		t.Error("pair key ignores configuration bindings")
	}

	// So must a different mode universe.
	d4 := New(Options{Verdicts: nopVerdicts{}, Modes: []string{"Home", "Away", "Night", "Vacation"}})
	a4, b4 := mkPair(t, d4, sharedTVWindowConfig("dev-tv", "dev-window"))
	if d1.pairKey(a1, b1) == d4.pairKey(a4, b4) {
		t.Error("pair key ignores the home's mode list")
	}

	// And the ordered pair is directional: (A,B) addresses threats with
	// R1/R2 oriented as installation order produced them.
	if d1.pairKey(a1, b1) == d1.pairKey(b1, a1) {
		t.Error("pair key collapsed the pair orientation")
	}

	// One interned instance installed twice shares its signature, but the
	// two slots' cross verdict must not be served from the instance's
	// intra-app entry (the rule-pair sets differ).
	res, err := symexec.Extract(comfortTVSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	d5 := New(Options{Verdicts: nopVerdicts{}})
	copy1 := NewInstalledApp(res, sharedTVWindowConfig("dev-tv", "dev-window"))
	copy2 := NewInstalledApp(res, sharedTVWindowConfig("dev-tv", "dev-window"))
	if copy1 != copy2 {
		t.Fatal("one extraction under equal configs should intern to one instance")
	}
	d5.Install(copy1)
	d5.Install(copy2)
	if d5.verdictKey(copy1, copy2, false) == d5.verdictKey(copy2, copy2, true) {
		t.Error("pair key aliases the cross verdict of duplicate instances with the intra-app verdict")
	}
}

// pairKey addresses the verdict of two apps held in distinct slots, or,
// given one app twice, its intra-app verdict.
func (d *Detector) pairKey(appA, appB *InstalledApp) PairKey {
	return d.verdictKey(appA, appB, appA == appB)
}

// footprintOf is the app's footprint by channel name, which its Channels
// hash.
func footprintOf(t *testing.T, ia *InstalledApp) *rule.Footprint {
	t.Helper()
	fp := footprintFromCompiled(ia.comp)
	if !slices.Equal(ChannelsOf(fp), ia.Channels()) {
		t.Fatalf("%s: channels do not hash the footprint %s", ia.Info.Name, fp)
	}
	return fp
}

// appSignature is the verdict signature of an app built by hand.
func appSignature(app *InstalledApp) []byte {
	return signature(infoState(app.Info, app.Rules), configEncoding(app.Config))
}

// TestAppSignatureNoFieldAliasing: variable-length signature fields are
// fenced so contents cannot slide across boundaries and alias two
// detection-distinct apps onto one fleet-shared verdict key.
func TestAppSignatureNoFieldAliasing(t *testing.T) {
	base := func() *InstalledApp {
		return &InstalledApp{
			Info: symexec.AppInfo{
				Name:   "A",
				Inputs: []symexec.InputDecl{{Name: "mode1", Type: "enum"}},
			},
			Rules:  &rule.RuleSet{},
			Config: NewConfig(),
		}
	}

	// Enum options feed solver domains; a lone option must not hash like a
	// default value with the same rendering.
	withOption := base()
	withOption.Info.Inputs[0].Options = []string{"x"}
	withDefault := base()
	withDefault.Info.Inputs[0].Default = rule.Var{Name: "x"}
	if string(appSignature(withOption)) == string(appSignature(withDefault)) {
		t.Error("signature aliases Options [x] with Default x")
	}

	// Config value lists are length-fenced per key: {"a": ["b"]} must not
	// hash like {"a": [], "b": []}.
	oneList := base()
	oneList.Config.ValueLists["a"] = []string{"b"}
	twoLists := base()
	twoLists.Config.ValueLists["a"] = nil
	twoLists.Config.ValueLists["b"] = nil
	if string(appSignature(oneList)) == string(appSignature(twoLists)) {
		t.Error(`signature aliases ValueLists {"a": ["b"]} with {"a": [], "b": []}`)
	}

	// Strings are length-prefixed, so config content (which arrives
	// verbatim from the JSON API and may contain any byte) cannot slide
	// across a key/value boundary.
	devA := base()
	devA.Config.Devices["a"] = "b\x00c"
	devB := base()
	devB.Config.Devices["a\x00b"] = "c"
	if string(appSignature(devA)) == string(appSignature(devB)) {
		t.Error(`signature aliases Devices {"a": "b\x00c"} with {"a\x00b": "c"}`)
	}
}

// TestFootprintCoversDemoChannels spot-checks the computed footprint on a
// demo app: ComfortTV reads the TV switch and temperature and writes the
// window switch.
func TestFootprintCoversDemoChannels(t *testing.T) {
	res, err := symexec.Extract(comfortTVSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sharedTVWindowConfig("dev-tv", "dev-window")
	cfg.Devices["tSensor"] = "dev-tSensor"
	ia := NewInstalledApp(res, cfg)
	fp := footprintOf(t, ia)
	for _, read := range []string{"dev-tv.switch", "dev-tSensor.temperature"} {
		if _, ok := fp.Reads[read]; !ok {
			t.Errorf("footprint misses read %q: %s", read, fp)
		}
	}
	if _, ok := fp.Writes["dev-window.switch"]; !ok {
		t.Errorf("footprint misses write dev-window.switch: %s", fp)
	}
	if _, ok := fp.Writes["dev-tv.switch"]; ok {
		t.Errorf("footprint claims ComfortTV writes the TV: %s", fp)
	}
}
