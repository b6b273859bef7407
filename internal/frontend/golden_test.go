package frontend_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/render_golden.txt from the current renderer output")

// renderTranscript installs every corpus app, in name order, into homes
// of 5 and then of 12 apps (the corpus cut into consecutive runs of that
// size), accepting each install's threats so later installs report
// chains. After each home is full it reconfigures the home's first app
// and reads the home's log and active set. It records every rendered
// text and every wire encoding the renderer feeds: each install's dialog
// and json.Marshal of its InstallResponse, each reconfigure's
// ReconfigureResponse, and api.ThreatsOf over the log and active set.
func renderTranscript(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	record := func(what string, v any) {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %s: %v", what, err)
		}
		fmt.Fprintf(&b, "-- %s\n%s\n", what, out)
	}
	for _, size := range []int{5, 12} {
		f := fleet.New(fleet.Options{})
		fillHomes(t, f, size, func(home, app string, res *fleet.InstallResult, err error) {
			fmt.Fprintf(&b, "== install %s %s\n", home, app)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				return
			}
			record("install", api.InstallResponseOf(res))
		}, func(home, first string) {
			fmt.Fprintf(&b, "== reconfigure %s %s\n", home, first)
			rc, err := f.Reconfigure(ctx, home, first, nil)
			if err != nil {
				t.Fatalf("reconfigure %s %s: %v", home, first, err)
			}
			record("reconfigure", api.ReconfigureResponseOf(rc))
			fmt.Fprintf(&b, "== read %s\n", home)
			log, err := f.Threats(home)
			if err != nil {
				t.Fatalf("threats %s: %v", home, err)
			}
			record("threats", api.ThreatsOf(log, 0))
			active, err := f.ActiveThreats(home)
			if err != nil {
				t.Fatalf("active threats %s: %v", home, err)
			}
			record("active", api.ThreatsOf(active, -1))
		})
	}
	return b.String()
}

// fillHomes installs every corpus app, in name order, into f's homes of
// size apps (the corpus cut into consecutive runs of that size), and
// accepts each install's first threat so later installs report chains.
// It calls installed after each install and full, with the home's first
// app, after each home is full.
func fillHomes(t *testing.T, f *fleet.Fleet, size int,
	installed func(home, app string, res *fleet.InstallResult, err error), full func(home, first string)) {
	t.Helper()
	apps := corpus.All()
	for lo := 0; lo < len(apps); lo += size {
		home := fmt.Sprintf("h%d-%d", size, lo/size)
		var first string
		for _, a := range apps[lo:min(lo+size, len(apps))] {
			res, err := f.Install(context.Background(), home, a.Source, nil)
			installed(home, a.Name, res, err)
			if err != nil {
				continue
			}
			if first == "" {
				first = res.App.Name
			}
			if len(res.Threats) > 0 {
				if err := f.AcceptByIndex(home, res.ThreatLogBase); err != nil {
					t.Fatalf("accept %s: %v", home, err)
				}
			}
		}
		if first != "" {
			full(home, first)
		}
	}
}

// TestRenderGolden pins every rendered install dialog, rule, threat and
// chain text and their wire encodings over the corpus byte for byte.
// Regenerate with: go test ./internal/frontend -run RenderGolden -update-golden
func TestRenderGolden(t *testing.T) {
	got := renderTranscript(t)
	path := filepath.Join("testdata", "render_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("render transcript differs at line %d:\n got: %.300s\nwant: %.300s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("render transcript length differs: got %d lines, want %d", len(gl), len(wl))
}
