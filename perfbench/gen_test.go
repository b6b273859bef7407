package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"homeguard/internal/symexec"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGeneratorDeterministic: the same seed gives byte-identical inputs,
// another seed different ones.
func TestGeneratorDeterministic(t *testing.T) {
	a, err := genInstallPlan(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInstallPlan(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInstallPlan(8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("install plans from one seed differ")
	}
	if bytes.Equal(mustJSON(t, a.Homes), mustJSON(t, c.Homes)) {
		t.Error("install plans from two seeds are equal")
	}
	if !bytes.Equal(mustJSON(t, genStorePlan(7, 10)), mustJSON(t, genStorePlan(7, 10))) {
		t.Error("store plans from one seed differ")
	}
	if bytes.Equal(mustJSON(t, genStorePlan(7, 10)), mustJSON(t, genStorePlan(8, 10))) {
		t.Error("store plans from two seeds are equal")
	}
}

// TestGeneratedAppsExtract: every app the generator can send extracts,
// and every synthetic store app is the one-rule lock app it claims.
func TestGeneratedAppsExtract(t *testing.T) {
	plan, err := genInstallPlan(1, 100) // installPool extracts every pool app
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pool) < appsPerHome {
		t.Fatalf("install pool has %d apps, want at least %d", len(plan.Pool), appsPerHome)
	}
	store := genStorePlan(1, 3)
	apps := store.Initial
	for _, b := range store.Batches {
		apps = append(apps, b...)
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Source] {
			t.Fatalf("%s: source sent twice; every upsert must miss the extraction cache", a.Name)
		}
		seen[a.Source] = true
		res, err := symexec.Extract(a.Source, "")
		if err != nil {
			t.Fatalf("%s does not extract: %v", a.Name, err)
		}
		if res.App.Name != a.Name || len(res.Rules.Rules) != 1 {
			t.Fatalf("%s extracted as %q with %d rules", a.Name, res.App.Name, len(res.Rules.Rules))
		}
	}
}

// TestPreloadCoversOrderedPairs: the preload installs every ordered
// pair of pool apps in some home, so the timed phase's verdicts are all
// cached.
func TestPreloadCoversOrderedPairs(t *testing.T) {
	plan, err := genInstallPlan(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Pool)
	covered := make([]bool, n*n)
	for _, h := range plan.Preload {
		if len(h.Apps) > appsPerHome {
			t.Fatalf("preload home %s has %d apps", h.ID, len(h.Apps))
		}
		for i, a := range h.Apps {
			for _, b := range h.Apps[i+1:] {
				covered[a*n+b] = true
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && !covered[a*n+b] {
				t.Fatalf("pool apps %d then %d are never installed in that order", a, b)
			}
		}
	}
}
