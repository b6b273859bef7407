package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"homeguard/internal/symexec"
)

// Two apps switching one shared light in opposite directions at a tap.

const lockSrc = `
definition(name: "Lock", namespace: "repro", author: "x",
    description: "Turn the light on at a tap.", category: "Convenience")
input "light1", "capability.switch"
def installed() { subscribe(app, appTouch) }
def updated() { subscribe(app, appTouch) }
def appTouch(evt) { light1.on() }
`

const autoLockSrc = `
definition(name: "Auto Lock", namespace: "repro", author: "x",
    description: "Turn the light off at a tap.", category: "Green Living")
input "light1", "capability.switch"
def installed() { subscribe(app, appTouch) }
def updated() { subscribe(app, appTouch) }
def appTouch(evt) { light1.off() }
`

func sharedLightConfig() *Config {
	cfg := NewConfig()
	cfg.Devices["light1"] = "dev-light"
	return cfg
}

// contactLightSrc is an app that switches light1 at a tap when contact1
// reads the given state.
func contactLightSrc(name, state, cmd string) string {
	return fmt.Sprintf(`
definition(name: %q, namespace: "repro", author: "x",
    description: "Switch the light by the door.", category: "Convenience")
input "light1", "capability.switch"
input "contact1", "capability.contactSensor"
def installed() { subscribe(app, appTouch) }
def updated() { subscribe(app, appTouch) }
def appTouch(evt) {
    if (contact1.currentContact == %q) { light1.%s() }
}
`, name, state, cmd)
}

// followerSrc switches light2 off whenever light1 turns on while contact1
// is closed, so an app switching light1 can trigger it.
const followerSrc = `
definition(name: "Follower", namespace: "repro", author: "x",
    description: "Follow the light.", category: "Convenience")
input "light1", "capability.switch"
input "light2", "capability.switch"
input "contact1", "capability.contactSensor"
def installed() { subscribe(light1, "switch.on", go) }
def updated() { subscribe(light1, "switch.on", go) }
def go(evt) {
    if (contact1.currentContact == "closed") { light2.off() }
}
`

// TestReconfigureMatchesFreshDetector: the solving memo lives for one rule
// pair, so no answer solved under an app's old bindings can reach a check
// under its new ones. Random installs and reconfigures re-bind the shared
// light and contact sensor away and back (which flips whether contact
// conditions can overlap while the pair stays a candidate); every pair a
// call returns must carry exactly the threats an independent detector
// computes for it, and every pair it does not return must have none.
func TestReconfigureMatchesFreshDetector(t *testing.T) {
	srcs := []string{
		contactLightSrc("Open On", "open", "on"),
		contactLightSrc("Closed Off", "closed", "off"),
		contactLightSrc("Open Off", "open", "off"),
		followerSrc,
		lockSrc,
	}
	var res []*symexec.Result
	for _, src := range srcs {
		r, err := symexec.Extract(src, "")
		if err != nil {
			t.Fatalf("extract: %v", err)
		}
		res = append(res, r)
	}
	config := func(rng *rand.Rand) *Config {
		if rng.Intn(5) == 0 {
			return nil
		}
		cfg := NewConfig()
		cfg.Devices["light1"] = []string{"dev-light", "dev-light-b"}[rng.Intn(2)]
		cfg.Devices["light2"] = "dev-lamp"
		cfg.Devices["contact1"] = []string{"dev-door", "dev-window"}[rng.Intn(2)]
		return cfg
	}

	for _, opts := range []Options{{}, {DisablePruning: true}} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := New(opts)
			installed := 0
			for op := 0; op < 14; op++ {
				var runs []PairRun
				var slot int
				if installed < len(res) && (installed == 0 || rng.Intn(3) == 0) {
					slot = installed
					runs = d.InstallRuns(NewInstalledApp(res[installed], config(rng)), nil)
					installed++
				} else {
					slot = rng.Intn(installed)
					var err error
					runs, err = d.ReconfigureRuns(d.Apps()[slot].Info.Name, config(rng), nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				apps := d.Apps()
				got := map[[2]int32][]Threat{}
				for _, r := range runs {
					got[[2]int32{r.Lo, r.Hi}] = r.Threats
				}
				// Both calls check the counterpart first, the changed app second.
				for other := range apps {
					want := New(opts).DetectAppPairCandidate(apps[other], apps[slot])
					key := [2]int32{int32(min(other, slot)), int32(max(other, slot))}
					if g := got[key]; !reflect.DeepEqual(g, want) {
						t.Fatalf("opts %+v seed %d op %d: pair (%s, %s) returned %v, a fresh detector finds %v",
							opts, seed, op, apps[other].Info.Name, apps[slot].Info.Name, g, want)
					}
				}
			}
		}
	}
}
