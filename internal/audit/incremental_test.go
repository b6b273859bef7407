package audit_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/events"
	"homeguard/internal/experiments"
	"homeguard/internal/extractcache"
	"homeguard/internal/obs"
)

// synthMap keys a synthetic corpus by app name (the synthetic apps carry
// pre-built extraction results, so names live on Res.App.Name).
func synthMap(apps []audit.App) map[string]audit.App {
	m := make(map[string]audit.App, len(apps))
	for _, a := range apps {
		m[a.Res.App.Name] = a
	}
	return m
}

// fullThreats is the from-scratch oracle: the serial install sequence
// over the store in install order.
func fullThreats(t *testing.T, order []string, cur map[string]audit.App) []detect.Threat {
	t.Helper()
	in := make([]audit.App, 0, len(order))
	for _, name := range order {
		in = append(in, cur[name])
	}
	threats, _ := serialAudit(t, in)
	return threats
}

func marshal(t *testing.T, ts []detect.Threat) []byte {
	t.Helper()
	b, err := detect.MarshalThreats(ts)
	if err != nil {
		t.Fatalf("marshal threats: %v", err)
	}
	return b
}

// TestIncrementalMatchesFullAudit is the churn property test: a
// randomized submit/update/remove sequence applied through the
// incremental auditor must leave findings byte-identical to a
// from-scratch serial audit of the current store at EVERY revision —
// same threats, same witnesses, same serial install order.
//
// The sparse store (device pool 16) churns a few apps per batch; the
// dense one (pool 4) has many findings per app and larger batches, so
// stale pairs, updates of both sides of a pair and out-of-order deltas
// are all exercised.
func TestIncrementalMatchesFullAudit(t *testing.T) {
	t.Run("sparse", func(t *testing.T) { checkChurnMatchesSerial(t, 16, 5) })
	t.Run("dense", func(t *testing.T) { checkChurnMatchesSerial(t, 4, 12) })
}

func checkChurnMatchesSerial(t *testing.T, pool, maxOps int) {
	const n = 40
	// Three generations of the same 40 names: same apps, different device
	// bindings and trigger constraints — an "update" swaps generations.
	gens := []map[string]audit.App{
		synthMap(experiments.SyntheticSparseApps(n, pool, 1)),
		synthMap(experiments.SyntheticSparseApps(n, pool, 2)),
		synthMap(experiments.SyntheticSparseApps(n, pool, 3)),
	}
	names := make([]string, 0, n)
	for _, a := range experiments.SyntheticSparseApps(n, pool, 1) {
		names = append(names, a.Res.App.Name)
	}

	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		aud := audit.NewAuditor(audit.AuditorOptions{Workers: 4})

		// The model store: expected install order and each name's current
		// generation and app value.
		var order []string
		gen := map[string]int{}
		cur := map[string]audit.App{}

		for step := 0; step < 10; step++ {
			var batch audit.Batch
			expectOrder := append([]string(nil), order...)
			removed := map[string]bool{}
			touched := map[string]bool{}   // upserted this batch
			submitted := map[string]bool{} // submitted (new) this batch
			ops := 1 + rng.Intn(maxOps)
			for op := 0; op < ops; op++ {
				switch k := rng.Intn(3); {
				case k == 0 && len(order) > 0: // remove an app present at batch start
					name := order[rng.Intn(len(order))]
					// Removes apply before upserts, so removing a name this
					// batch also upserts would reinstall it — keep the model
					// simple and skip that combination.
					if removed[name] || touched[name] {
						continue
					}
					removed[name] = true
					batch.Removes = append(batch.Removes, name)
					for i, o := range expectOrder {
						if o == name {
							expectOrder = append(expectOrder[:i], expectOrder[i+1:]...)
							break
						}
					}
					delete(gen, name)
					delete(cur, name)
				case k == 1 && len(expectOrder) > 0: // update an installed app
					name := expectOrder[rng.Intn(len(expectOrder))]
					g := (gen[name] + 1) % 3
					gen[name] = g
					batch.Upserts = append(batch.Upserts, gens[g][name])
					cur[name] = gens[g][name]
					touched[name] = true
					if submitted[name] {
						// A new app lands where its last upsert of the
						// batch sits: after every app submitted so far.
						for i, o := range expectOrder {
							if o == name {
								expectOrder = append(append(expectOrder[:i:i], expectOrder[i+1:]...), name)
								break
							}
						}
					}
				default: // submit a new app
					name := names[rng.Intn(len(names))]
					if _, ok := cur[name]; ok || removed[name] {
						continue
					}
					gen[name] = 0
					batch.Upserts = append(batch.Upserts, gens[0][name])
					cur[name] = gens[0][name]
					touched[name] = true
					submitted[name] = true
					expectOrder = append(expectOrder, name)
				}
			}
			if len(batch.Upserts) == 0 && len(batch.Removes) == 0 {
				continue
			}
			rev, err := aud.Apply(batch)
			if err != nil {
				t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
			}
			if len(rev.Errors) != 0 {
				t.Fatalf("seed %d step %d: unexpected batch errors: %v", seed, step, rev.Errors)
			}
			// Every re-checked pair is a changed app's intra pair or an
			// index candidate.
			if want := rev.Pairs - len(touched); rev.Stats.PairsIndexed != want {
				t.Fatalf("seed %d step %d: PairsIndexed = %d, want %d (pairs %d, changed apps %d)",
					seed, step, rev.Stats.PairsIndexed, want, rev.Pairs, len(touched))
			}
			order = expectOrder

			if got := aud.Apps(); !equalStrings(got, order) {
				t.Fatalf("seed %d step %d: store order = %v, want %v", seed, step, got, order)
			}
			got := marshal(t, aud.Threats())
			want := marshal(t, fullThreats(t, order, cur))
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d (rev %d): incremental findings diverge from full audit\nincremental: %s\nfull: %s",
					seed, step, rev.Rev, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAuditorDeltaConsistency pins that replaying every revision's
// Added/Resolved delta reconstructs the active finding set — the
// contract feed consumers rely on.
func TestAuditorDeltaConsistency(t *testing.T) {
	apps := experiments.SyntheticSparseApps(30, 12, 1)
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2})

	active := map[string]int{} // finding identity -> count
	key := func(f audit.Finding) string {
		b, err := detect.MarshalThreats([]detect.Threat{f.Threat})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return f.App1 + "\x00" + f.App2 + "\x00" + string(b)
	}
	apply := func(batch audit.Batch) {
		t.Helper()
		rev, err := aud.Apply(batch)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		for _, f := range rev.Added {
			active[key(f)]++
		}
		for _, f := range rev.Resolved {
			k := key(f)
			active[k]--
			if active[k] == 0 {
				delete(active, k)
			} else if active[k] < 0 {
				t.Fatalf("rev %d resolved a finding that was never added: %v", rev.Rev, f)
			}
		}
		want := map[string]int{}
		for _, f := range aud.Findings() {
			want[key(f)]++
		}
		if len(active) != len(want) {
			t.Fatalf("rev %d: delta replay has %d identities, active set has %d", rev.Rev, len(active), len(want))
		}
		for k, n := range want {
			if active[k] != n {
				t.Fatalf("rev %d: delta replay count %d != active %d for %q", rev.Rev, active[k], n, k)
			}
		}
	}

	for i := 0; i < len(apps); i += 6 {
		var batch audit.Batch
		for j := i; j < i+6 && j < len(apps); j++ {
			batch.Upserts = append(batch.Upserts, apps[j])
		}
		apply(batch)
	}
	// Churn: remove a third, then resubmit them.
	var rm, back audit.Batch
	for i := 0; i < len(apps); i += 3 {
		rm.Removes = append(rm.Removes, apps[i].Res.App.Name)
		back.Upserts = append(back.Upserts, apps[i])
	}
	apply(rm)
	apply(back)
	if got := aud.ActiveFindings(); got != len(aud.Findings()) {
		t.Fatalf("ActiveFindings = %d, Findings has %d", got, len(aud.Findings()))
	}
}

// TestAuditorFindingsSince covers delta replay, the since>=rev fast
// path, and the Reset fallback once history is trimmed.
func TestAuditorFindingsSince(t *testing.T) {
	apps := experiments.SyntheticSparseApps(24, 10, 1)
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2, History: 2})

	for i := 0; i < len(apps); i += 4 {
		var batch audit.Batch
		for j := i; j < i+4 && j < len(apps); j++ {
			batch.Upserts = append(batch.Upserts, apps[j])
		}
		if _, err := aud.Apply(batch); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	cur := aud.Rev()
	if cur != 6 {
		t.Fatalf("rev = %d, want 6", cur)
	}

	if f := aud.FindingsSince(cur); f.Reset || len(f.Added) != 0 || len(f.Resolved) != 0 || f.Rev != cur {
		t.Fatalf("FindingsSince(current) = %+v, want empty non-reset", f)
	}
	if f := aud.FindingsSince(cur + 5); f.Reset || len(f.Added) != 0 {
		t.Fatalf("FindingsSince(future) = %+v, want empty non-reset", f)
	}

	// History=2 retains revisions 5 and 6: since 4 replays deltas, since
	// 3 must degrade to a reset snapshot equal to the full active set.
	if f := aud.FindingsSince(cur - 2); f.Reset {
		t.Fatalf("FindingsSince(rev-2) reset with history covering it")
	}
	f := aud.FindingsSince(cur - 3)
	if !f.Reset {
		t.Fatalf("FindingsSince(rev-3) = %+v, want reset (history trimmed)", f)
	}
	got := marshal(t, findingThreats(f.Added))
	want := marshal(t, aud.Threats())
	if !bytes.Equal(got, want) {
		t.Fatalf("reset snapshot diverges from active set:\n%s\nvs\n%s", got, want)
	}
}

func findingThreats(fs []audit.Finding) []detect.Threat {
	out := make([]detect.Threat, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Threat)
	}
	return out
}

// TestAuditorBatchErrors covers the per-app failure paths: unknown
// removes, failed extractions through a shared extraction cache (store
// entry unchanged) and the empty batch sentinel.
func TestAuditorBatchErrors(t *testing.T) {
	cache := extractcache.New()
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2, Extract: cache})
	if _, err := aud.Apply(audit.Batch{}); !errors.Is(err, audit.ErrEmptyBatch) {
		t.Fatalf("empty batch: err = %v, want ErrEmptyBatch", err)
	}

	tv, _ := corpus.Get("ComfortTV")
	cd, _ := corpus.Get("ColdDefender")
	rev, err := aud.Apply(audit.Batch{
		Upserts: []audit.App{{Source: tv.Source}, {Source: cd.Source}},
		Removes: []string{"NoSuchApp"},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !errors.Is(rev.Errors["NoSuchApp"], audit.ErrUnknownApp) {
		t.Fatalf("remove of unknown app: errors = %v, want ErrUnknownApp", rev.Errors)
	}
	if rev.Apps != 2 || len(rev.Added) == 0 {
		t.Fatalf("rev = apps %d added %d, want 2 apps and threats (ComfortTV vs ColdDefender)", rev.Apps, len(rev.Added))
	}

	before := marshal(t, aud.Threats())
	rev, err = aud.Apply(audit.Batch{Upserts: []audit.App{
		{Name: "Broken", Source: "definition("}, // unparsable
	}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rev.Errors["Broken"] == nil {
		t.Fatalf("broken upsert: errors = %v, want extraction error", rev.Errors)
	}
	if misses := cache.Stats().Misses; misses != 3 {
		t.Fatalf("shared cache misses = %d, want 3 (two apps and the broken source)", misses)
	}
	if rev.Apps != 2 || len(rev.Added) != 0 || len(rev.Resolved) != 0 {
		t.Fatalf("broken upsert changed the store: %+v", rev)
	}
	if after := marshal(t, aud.Threats()); !bytes.Equal(before, after) {
		t.Fatalf("broken upsert changed findings")
	}

	// Remove one side: its findings resolve and the active set empties of
	// cross-app threats.
	rev, err = aud.Apply(audit.Batch{Removes: []string{"ColdDefender"}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(rev.Resolved) == 0 {
		t.Fatalf("removing ColdDefender resolved nothing")
	}
	for _, f := range aud.Findings() {
		if f.App1 == "ColdDefender" || f.App2 == "ColdDefender" {
			t.Fatalf("finding survived its app's removal: %+v", f)
		}
	}
}

// TestAuditorEventsAndMetrics pins the observable surface: revision and
// finding events on the writer, homeguard_audit_* series in the
// registry.
func TestAuditorEventsAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	w := events.NewWriter(events.NewJSONSink(&buf), events.Options{})
	o := obs.NewObserver()
	o.Tracer.SetEnabled(true)
	aud := audit.NewAuditor(audit.AuditorOptions{Workers: 2, Obs: o, Events: w})

	tv, _ := corpus.Get("ComfortTV")
	cd, _ := corpus.Get("ColdDefender")
	rev, err := aud.Apply(audit.Batch{Upserts: []audit.App{{Source: tv.Source}, {Source: cd.Source}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rev.Rev != 1 || len(rev.Added) == 0 {
		t.Fatalf("rev = %+v, want rev 1 with added findings", rev)
	}
	if _, err := aud.Apply(audit.Batch{Removes: []string{"ColdDefender"}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	w.Close()

	out := buf.String()
	for _, want := range []string{
		`"type":"revision"`, `"type":"finding"`, `"status":"added"`, `"status":"resolved"`, `"rev":2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("event stream missing %s:\n%s", want, out)
		}
	}

	var scrapeBuf bytes.Buffer
	if err := o.Registry.WritePrometheus(&scrapeBuf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	scrape := scrapeBuf.String()
	for _, name := range []string{
		"homeguard_audit_revisions_total 2",
		"homeguard_audit_pairs_rechecked_total",
		"homeguard_audit_findings_added_total",
		"homeguard_audit_findings_resolved_total",
		"homeguard_audit_store_apps 1",
		"homeguard_audit_findings_active",
	} {
		if !strings.Contains(scrape, name) {
			t.Fatalf("scrape missing %s:\n%s", name, scrape)
		}
	}
}
