package detect

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"homeguard/internal/envmodel"
	"homeguard/internal/obs"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// ErrAppNotInstalled reports a Reconfigure of an app name the detector has
// never installed, matchable with errors.Is (the fleet and the daemon map
// it to a not-found response).
var ErrAppNotInstalled = errors.New("detect: app not installed")

// Detector holds the home's installed apps and detects CAI threats as new
// apps arrive (the online part of HomeGuard).
//
// Concurrency contract: a Detector is NOT safe for concurrent use. Every
// exported method — Install, Reconfigure, Accept, FindChains, DetectPair,
// CheckPair, Stats, Apps — mutates or reads satCache, stats, curKind,
// inputOptions, apps or accepted without internal locking; the caller must
// serialize all calls on one Detector instance. internal/fleet does
// exactly that: it wraps each home's Detector behind one per-home mutex
// held for the full duration of any call, so those fields are guarded by
// the fleet's per-home lock boundary while distinct homes run in parallel.
// The Detector only ever READS the *rule.RuleSet and AppInfo inside an
// InstalledApp, so extraction results may be shared across detectors
// (the extractcache relies on this; see symexec.Result). The compiled
// rule set a detector attaches to an InstalledApp is a pure function of
// the app's exported fields (see compile.go), so sharing an InstalledApp
// across detectors is still sound — but the attach itself is an
// unsynchronized write, so one instance must not be compiled by different
// detectors concurrently (build a fresh InstalledApp per home, as the
// fleet does).
type Detector struct {
	apps  []*InstalledApp
	modes []string
	// modesSig is the length-prefixed mode list rendering hashed into every
	// PairKey, precomputed once (the modes never change after New).
	modesSig []byte
	opts     Options
	stats    Stats
	// curKind attributes solver time to the threat kind being detected
	// (Fig. 9 instrumentation). Guarded by the caller's serialization
	// (the fleet's per-home lock).
	curKind Kind

	// satCache memoises overlapping-condition solving results so CT/SD/LT
	// reuse the AR merge and DC reuses EC (Fig. 9 green arrows). Guarded
	// by the caller's serialization (the fleet's per-home lock).
	satCache map[string]satResult
	// keysByApp indexes satCache keys by participant app so Reconfigure
	// evicts exactly the entries a config change invalidates in
	// O(entries involving the app) instead of scanning the whole cache —
	// in a populated home the full scan dominated the steady-state
	// reconfigure cost. Sets mirror satCache exactly: every cached key is
	// in its (up to) two participants' sets and is removed from both on
	// eviction, so the index never holds stale keys. Guarded like satCache.
	keysByApp map[string]map[string]struct{}

	// inputOptions maps canonical input-variable names ("app!input") to
	// the enum options declared in the app's preferences, giving the
	// solver accurate domains for unbound enum inputs.
	inputOptions map[string][]string

	// accepted holds user-accepted interfering pairs for chained analysis.
	accepted []Threat

	// limitErr records a solver budget exhaustion during the current
	// CheckPair call (see CheckPair); conservative detection continues, but
	// error-aware callers get it surfaced instead of a silent verdict.
	limitErr error

	// idx is the inverted footprint-channel index over the installed apps
	// (slots aligned with d.apps). Install and Reconfigure query it for
	// candidate counterparts instead of enumerating every installed app,
	// so candidate generation scales with channel overlap, not home size.
	// nil when DisablePruning is set (the ablation runs the full scan).
	idx *FootprintIndex
	// candBuf is the reusable candidate-slot buffer for index queries.
	candBuf []int32
	// totalRules is the rule count summed over installed apps, kept so the
	// index path can charge skipped (never-generated) pairs to the prune
	// counters in O(candidates) instead of walking every installed app.
	totalRules int

	// span, when non-nil, is the parent under which Install/Reconfigure
	// record their stage spans (compile, candidates, verdict, solve). Set
	// by the caller around one operation (SetSpan) under the same
	// serialization every other detector field relies on; nil — the
	// default — costs only nil checks on the instrumented paths, never in
	// the per-rule-pair core (detectPair is not instrumented, keeping
	// DetectPair allocation-free).
	span *obs.Span
}

type satResult struct {
	sat     bool
	witness solver.Model
	// apps are the (up to) two app names whose rules produced the cached
	// formulas, recorded so Reconfigure can evict exactly the entries a
	// config change invalidates.
	apps [2]string
	// limited marks a verdict degraded by solver budget exhaustion
	// (conservatively satisfiable). Cache hits re-raise the degradation so
	// CheckPair reports it on every call that consumed the entry, not just
	// the one that solved it.
	limited bool
}

// New returns a detector for one smart home.
func New(opts Options) *Detector {
	modes := opts.Modes
	if len(modes) == 0 {
		modes = []string{"Home", "Away", "Night"}
	}
	d := &Detector{
		modes:        modes,
		modesSig:     modesSignature(modes),
		opts:         opts,
		stats:        newStats(),
		satCache:     map[string]satResult{},
		keysByApp:    map[string]map[string]struct{}{},
		inputOptions: map[string][]string{},
	}
	if !opts.DisablePruning {
		d.idx = NewFootprintIndex()
	}
	return d
}

// SetSpan sets (or, with nil, clears) the parent span under which the
// next Install/Reconfigure records stage timings. The caller must hold
// whatever serializes the detector (the fleet's per-home lock) and clear
// the span when the operation ends — the detector never outlives one
// operation's span.
func (d *Detector) SetSpan(sp *obs.Span) { d.span = sp }

// Stats returns detector work counters.
func (d *Detector) Stats() Stats { return d.stats }

// Apps returns the installed apps in installation order.
func (d *Detector) Apps() []*InstalledApp { return d.apps }

// Install detects CAI threats between the new app and every already
// installed app (and within the new app itself), then records the app as
// installed. This mirrors the one-time decision point at app installation.
//
// Counterpart candidates come from the inverted footprint-channel index
// (see FootprintIndex): only apps sharing an interference channel with
// the new app are paired; the rest are skipped without ever being
// enumerated (counted in Stats.PairsSkippedByIndex as well as
// Stats.PairsPruned, since the index skips exactly the pairs the scan
// path's footprint prune would have rejected one by one). With
// DisablePruning the full scan runs instead.
func (d *Detector) Install(app *InstalledApp) []Threat {
	d.noteInputOptions(app)
	// Compile the app once per install: canonical formulas, declaration
	// plans, effects, footprint and verdict signature (see compile.go).
	csp := d.span.Child("compile")
	d.prepare(app)
	csp.End()
	var threats []Threat
	// Intra-app pairs (rules within one app can interfere too).
	threats = append(threats, d.appPairThreats(app, app)...)
	if d.idx != nil {
		// Candidate slots come back sorted, i.e. in installation order, so
		// pairing them directly reproduces the scan path's threat order.
		// The skipped remainder is charged to the prune counters from the
		// running rule-count total — no per-app walk.
		gsp := d.span.Child("candidates")
		d.candBuf = d.idx.AppendCandidates(app.fp, d.candBuf[:0])
		gsp.SetInt("candidates", int64(len(d.candBuf)))
		gsp.End()
		d.stats.PairsIndexed += len(d.candBuf)
		candRules := 0
		for _, s := range d.candBuf {
			old := d.apps[s]
			candRules += len(old.Rules.Rules)
			threats = append(threats, d.appPairVerdict(old, app)...)
		}
		n := (d.totalRules - candRules) * len(app.Rules.Rules)
		d.stats.PairsPruned += n
		d.stats.PairsSkippedByIndex += n
		d.idx.Add(app.fp) // slot == len(d.apps)
	} else {
		for _, old := range d.apps {
			threats = append(threats, d.appPairThreats(old, app)...)
		}
	}
	d.apps = append(d.apps, app)
	d.totalRules += len(app.Rules.Rules)
	return threats
}

// noteInputOptions records an app's declared enum-input options for
// solver domains (keyed by the app-qualified canonical input name, so
// apps never interfere with each other's domains).
func (d *Detector) noteInputOptions(app *InstalledApp) {
	for i := range app.Info.Inputs {
		in := &app.Info.Inputs[i]
		if len(in.Options) > 0 {
			d.inputOptions[rule.InternBanged(app.Info.Name, in.Name)] = in.Options
		}
	}
}

// Precompile attaches the app's compiled rule set without installing it.
// Compilation is a pure function of the app's exported fields (see
// compile.go), but the attach itself is an unsynchronized write — the
// store auditor precompiles each changed app on one worker before
// sharing the InstalledApps read-only across worker detectors.
func (d *Detector) Precompile(app *InstalledApp) { d.ensureCompiled(app) }

// DetectAppPair runs the full pair detection between two apps — footprint
// prune, optional shared verdict cache, all seven per-rule-pair checks —
// without recording either app as installed. It reproduces exactly what
// Install computes for the (appA, appB) pair: the enum-input options of
// both apps are noted first, as Install would have by the time this pair
// ran, and per-pair solving state (satCache keys are rule-pair-scoped)
// never crosses pairs, so a pair's threats are identical whether computed
// by a serial install sequence or an independent detector. appA must be
// the earlier-installed side (intra-app pairs pass the same app twice).
func (d *Detector) DetectAppPair(appA, appB *InstalledApp) []Threat {
	d.noteInputOptions(appA)
	if appB != appA {
		d.noteInputOptions(appB)
	}
	return d.appPairThreats(appA, appB)
}

// DetectAppPairCandidate is DetectAppPair for pairs already known to
// share a footprint channel (index-generated candidates, or intra-app
// pairs): it skips the per-pair footprint prune walk that DetectAppPair
// would re-run, which is the point of generating candidates from postings
// in the first place.
func (d *Detector) DetectAppPairCandidate(appA, appB *InstalledApp) []Threat {
	d.noteInputOptions(appA)
	if appB != appA {
		d.noteInputOptions(appB)
	}
	return d.appPairVerdict(appA, appB)
}

// Merge adds other's counters into s, for engines that aggregate several
// worker detectors' stats into one audit-wide view.
func (s *Stats) Merge(other Stats) {
	s.PairsChecked += other.PairsChecked
	s.SolverCalls += other.SolverCalls
	s.SolverCacheHits += other.SolverCacheHits
	s.SearchLimitHits += other.SearchLimitHits
	s.PairsPruned += other.PairsPruned
	s.PairsIndexed += other.PairsIndexed
	s.PairsSkippedByIndex += other.PairsSkippedByIndex
	s.PairVerdictHits += other.PairVerdictHits
	s.PairVerdictMisses += other.PairVerdictMisses
	for k, v := range other.Candidates {
		s.Candidates[k] += v
	}
	for k, v := range other.Found {
		s.Found[k] += v
	}
	for k, v := range other.FilterNS {
		s.FilterNS[k] += v
	}
	for k, v := range other.SolveNS {
		s.SolveNS[k] += v
	}
}

// appPairThreats detects every threat between appA's and appB's rules
// (intra-app when appA == appB), going through the footprint prune and,
// when configured, the fleet-shared pair-verdict cache. Index-driven
// callers that already know the pair shares a channel use appPairVerdict
// directly, skipping the per-pair footprint walk.
func (d *Detector) appPairThreats(appA, appB *InstalledApp) []Threat {
	// Footprint prune: when neither app's writes touch anything the other
	// app reads or writes, no interference channel exists and the whole
	// pair is skipped — no solving, no cache traffic. Intra-app pairs are
	// never pruned (a rule set trivially shares its own footprint).
	if !d.opts.DisablePruning && appA != appB && !appA.fp.SharesChannel(appB.fp) {
		d.stats.PairsPruned += len(appA.Rules.Rules) * len(appB.Rules.Rules)
		return nil
	}
	return d.appPairVerdict(appA, appB)
}

// appPairVerdict runs pair detection for a pair already known to share an
// interference channel (or exempt from pruning), consulting the
// fleet-shared pair-verdict cache when configured.
func (d *Detector) appPairVerdict(appA, appB *InstalledApp) []Threat {
	nPairs := len(appA.Rules.Rules) * len(appB.Rules.Rules)
	if appA == appB {
		n := len(appA.Rules.Rules)
		nPairs = n * (n - 1) / 2
	}
	if nPairs == 0 {
		return nil
	}
	if d.opts.Verdicts == nil {
		ssp := d.span.Child("solve")
		out := d.detectAppPair(appA, appB)
		if ssp != nil {
			ssp.SetStr("a", appA.Info.Name)
			ssp.SetStr("b", appB.Info.Name)
			ssp.SetInt("pairs", int64(nPairs))
			ssp.End()
		}
		return out
	}
	vsp := d.span.Child("verdict")
	threats, hit := d.opts.Verdicts.Detect(d.pairKey(appA, appB), func() []Threat {
		ssp := vsp.Child("solve")
		out := d.detectAppPair(appA, appB)
		ssp.End()
		return out
	})
	if hit {
		d.stats.PairVerdictHits++
		// Keep PairsChecked meaning "rule pairs whose verdict this home
		// obtained" whether solved locally or served from the cache.
		d.stats.PairsChecked += nPairs
	} else {
		d.stats.PairVerdictMisses++
	}
	if vsp != nil {
		vsp.SetStr("a", appA.Info.Name)
		vsp.SetStr("b", appB.Info.Name)
		if hit {
			vsp.SetStr("cache", "hit")
		} else {
			vsp.SetStr("cache", "miss")
		}
		vsp.End()
	}
	return threats
}

// detectAppPair runs the pair detections over every rule pair of the two
// apps, consuming their compiled rule sets.
func (d *Detector) detectAppPair(appA, appB *InstalledApp) []Threat {
	ca, cb := d.ensureCompiled(appA), d.ensureCompiled(appB)
	var out []Threat
	if appA == appB {
		for i := 0; i < len(ca.rules); i++ {
			for j := i + 1; j < len(ca.rules); j++ {
				out = append(out, d.detectPair(&ca.rules[i], &ca.rules[j])...)
			}
		}
		return out
	}
	for i := range ca.rules {
		for j := range cb.rules {
			out = append(out, d.detectPair(&ca.rules[i], &cb.rules[j])...)
		}
	}
	return out
}

// Accept records that the user decided to keep an interfering pair; later
// installations search for chains through accepted pairs (Sec. VI-D).
func (d *Detector) Accept(t Threat) { d.accepted = append(d.accepted, t) }

// Accepted returns the user-accepted interfering pairs in acceptance
// order (snapshot support: a restored detector must keep chaining through
// the pairs the user accepted before the restart). Callers must not
// mutate the returned slice.
func (d *Detector) Accepted() []Threat { return d.accepted }

// RestoreInstalled records app as installed without running any pair
// detection — the snapshot-restore path, where the threats the install
// produced were already detected (and persisted) by the previous process
// and re-solving them would turn recovery time into detection time. It
// performs exactly Install's bookkeeping: input-option noting,
// compilation, index registration and the rule-count total.
func (d *Detector) RestoreInstalled(app *InstalledApp) {
	d.noteInputOptions(app)
	d.prepare(app)
	if d.idx != nil {
		d.idx.Add(app.fp) // slot == len(d.apps)
	}
	d.apps = append(d.apps, app)
	d.totalRules += len(app.Rules.Rules)
}

// Reconfigure replaces an installed app's configuration (the updated()
// lifecycle path: "whenever a new app is installed or the configuration of
// an installed app is updated") and re-runs detection between that app and
// every other installed app. It returns the threats under the new
// configuration; an unknown app name fails with ErrAppNotInstalled.
//
// Like Install, counterpart candidates come from the footprint-channel
// index: only pairs whose footprint intersects the reconfigured app are
// re-solved — the index postings are updated to the app's new footprint
// first, so candidates reflect the new bindings.
func (d *Detector) Reconfigure(appName string, cfg *Config) ([]Threat, error) {
	var target *InstalledApp
	slot := -1
	for i, a := range d.apps {
		if a.Info.Name == appName {
			target, slot = a, i
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("%w: %q", ErrAppNotInstalled, appName)
	}
	if cfg == nil {
		cfg = NewConfig()
	}
	target.Config = cfg
	// Drop cached solving results involving the app: config substitutions
	// change the formulas behind the cached keys. Entries record their
	// participant apps exactly, so only keys the new binding invalidates
	// go — substring matching over keys would both over-evict (app "Lock"
	// clearing entries of "Auto Lock") and rot if the key format changed.
	// The per-app key index walks exactly those entries; the counterpart
	// app's index entry is dropped too, so the index stays an exact
	// mirror of the cache.
	for k := range d.keysByApp[appName] {
		r, ok := d.satCache[k]
		if !ok {
			continue
		}
		delete(d.satCache, k)
		other := r.apps[0]
		if other == appName {
			other = r.apps[1]
		}
		if other != appName && other != "" {
			delete(d.keysByApp[other], k)
		}
	}
	delete(d.keysByApp, appName)
	// The new bindings change the app's compiled formulas, its canonical
	// footprint and its verdict signature; recompile before re-pairing.
	csp := d.span.Child("compile")
	d.prepare(target)
	csp.End()
	var threats []Threat
	if d.idx != nil {
		gsp := d.span.Child("candidates")
		d.idx.Update(slot, target.fp)
		d.candBuf = d.idx.AppendCandidates(target.fp, d.candBuf[:0])
		gsp.SetInt("candidates", int64(len(d.candBuf)))
		gsp.End()
		threats = append(threats, d.appPairThreats(target, target)...)
		// Sorted candidate slots reproduce the scan path's pair order; the
		// target's own slot is skipped (the intra pair already ran), and
		// the never-generated remainder is charged to the prune counters
		// from the running rule-count total.
		tr := len(target.Rules.Rules)
		candRules := 0
		for _, s := range d.candBuf {
			other := d.apps[s]
			if other == target {
				continue
			}
			d.stats.PairsIndexed++
			candRules += len(other.Rules.Rules)
			threats = append(threats, d.appPairVerdict(other, target)...)
		}
		n := (d.totalRules - tr - candRules) * tr
		d.stats.PairsPruned += n
		d.stats.PairsSkippedByIndex += n
		return threats, nil
	}
	threats = append(threats, d.appPairThreats(target, target)...)
	for _, other := range d.apps {
		if other == target {
			continue
		}
		threats = append(threats, d.appPairThreats(other, target)...)
	}
	return threats, nil
}

// DetectPair runs all seven detections over one ordered rule pair,
// reporting any threats found. Solver budget exhaustion degrades to a
// conservative verdict (see CheckPair for the error-aware form).
func (d *Detector) DetectPair(appA *InstalledApp, r1 *rule.Rule, appB *InstalledApp, r2 *rule.Rule) []Threat {
	ts, _ := d.CheckPair(appA, r1, appB, r2)
	return ts
}

// CheckPair runs all seven detections over one ordered rule pair. Unlike
// DetectPair it surfaces solver budget exhaustion: when any constraint
// query during the pair check exceeds the node budget
// (Options.SolverNodeCap), the returned error wraps solver.ErrSearchLimit.
// The threats are still the conservative verdict (a budget-limited query
// counts as satisfiable, so potential threats are reported rather than
// hidden) — but the caller knows the verdict was degraded instead of
// mistaking it for a clean result. Degradation sticks: satCache entries
// produced by a budget-limited solve re-surface the error on every later
// CheckPair that consumes them. (Verdicts served from a fleet-shared
// PairVerdictCache carry no such marker; fleet-level degradation is
// monitored via Stats.SearchLimitHits / the fleet's SolverLimitHits
// rollup instead.)
func (d *Detector) CheckPair(appA *InstalledApp, r1 *rule.Rule, appB *InstalledApp, r2 *rule.Rule) ([]Threat, error) {
	c1 := d.compiledFor(appA, r1)
	c2 := d.compiledFor(appB, r2)
	d.limitErr = nil
	out := d.detectPair(c1, c2)
	err := d.limitErr
	d.limitErr = nil
	return out, err
}

// detectPair is the compiled-pair core behind DetectPair/CheckPair.
func (d *Detector) detectPair(c1, c2 *compiledRule) []Threat {
	d.stats.PairsChecked++
	var out []Threat

	// --- Action-Interference: AR then GC ---
	if t, ok := d.detectAR(c1, c2); ok {
		out = append(out, t)
	}
	if t, ok := d.detectGC(c1, c2); ok {
		out = append(out, t)
	}

	// --- Trigger-Interference: CT both directions, then SD / LT ---
	ct12, okCT12 := d.detectCT(c1, c2)
	ct21, okCT21 := d.detectCT(c2, c1)
	arCand := contradictoryActions(c1, c2)
	if okCT12 {
		out = append(out, ct12)
	}
	if okCT21 {
		out = append(out, ct21)
	}
	if okCT12 && arCand {
		sd := ct12
		sd.Kind = SelfDisabling
		sd.Note = "triggered rule reverses the triggering rule's action"
		d.stats.Found[SelfDisabling]++
		out = append(out, sd)
	}
	if okCT21 && arCand && !okCT12 {
		sd := ct21
		sd.Kind = SelfDisabling
		sd.Note = "triggered rule reverses the triggering rule's action"
		d.stats.Found[SelfDisabling]++
		out = append(out, sd)
	}
	if okCT12 && okCT21 && arCand {
		lt := ct12
		lt.Kind = LoopTriggering
		lt.Note = "rules trigger each other with contradictory actions"
		d.stats.Found[LoopTriggering]++
		out = append(out, lt)
	}

	// --- Condition-Interference: EC/DC both directions ---
	if t, ok := d.detectCondInterference(c1, c2); ok {
		out = append(out, t)
	}
	if t, ok := d.detectCondInterference(c2, c1); ok {
		out = append(out, t)
	}
	return out
}

// ---------- shared solving with reuse ----------

// kindTimer times a detection stage for one threat kind without the
// closure allocation a deferred func literal would cost on every stage of
// every pair check; use as: defer d.endKind(d.beginKind(k)).
type kindTimer struct {
	k      Kind
	start  time.Time
	solve0 int64
}

func (d *Detector) beginKind(k Kind) kindTimer {
	d.curKind = k
	return kindTimer{k: k, start: time.Now(), solve0: d.stats.SolveNS[k]}
}

// endKind finishes the stage, attributing solver time to SolveNS and the
// rest (candidate filtering and formula construction) to FilterNS.
func (d *Detector) endKind(t kindTimer) {
	total := time.Since(t.start).Nanoseconds()
	solved := d.stats.SolveNS[t.k] - t.solve0
	d.stats.FilterNS[t.k] += total - solved
}

// solveCompiled decides satisfiability of the (up to) two compiled
// formulas, caching by key and declaring variables from the precompiled
// plans. apps names the participant apps for satCache eviction.
func (d *Detector) solveCompiled(key string, apps [2]string, declsA, declsB []varDecl, f1, f2 rule.Constraint) (solver.Model, bool) {
	if !d.opts.DisableReuse && key != "" {
		if r, ok := d.satCache[key]; ok {
			d.stats.SolverCacheHits++
			d.noteLimited(r)
			return r.witness, r.sat
		}
	}
	p := solver.NewProblem()
	d.declareGroups(p, declsA, declsB)
	p.AddConstraint(f1)
	p.AddConstraint(f2)
	return d.runSolve(p, key, apps)
}

// solveWalk is solveCompiled for ad-hoc formula sets (effect merges,
// setpoint bounds): variables are declared by walking the formulas.
func (d *Detector) solveWalk(key string, apps [2]string, formulas ...rule.Constraint) (solver.Model, bool) {
	if !d.opts.DisableReuse && key != "" {
		if r, ok := d.satCache[key]; ok {
			d.stats.SolverCacheHits++
			d.noteLimited(r)
			return r.witness, r.sat
		}
	}
	p := solver.NewProblem()
	d.declareVars(p, formulas...)
	for _, f := range formulas {
		p.AddConstraint(f)
	}
	return d.runSolve(p, key, apps)
}

// runSolve executes a prepared problem, times it against the current
// threat kind, applies the conservative budget-exhaustion policy and
// caches the result under key.
func (d *Detector) runSolve(p *solver.Problem, key string, apps [2]string) (solver.Model, bool) {
	d.stats.SolverCalls++
	if d.opts.SolverNodeCap > 0 {
		p.SetNodeCap(d.opts.SolverNodeCap)
	}
	solveStart := time.Now()
	m, sat, err := p.Solve()
	d.stats.SolveNS[d.curKind] += time.Since(solveStart).Nanoseconds()
	limited := false
	if err != nil {
		// Search-limit exhaustion: be conservative and report
		// satisfiable-without-witness (a potential threat is surfaced to
		// the user rather than hidden), and record the degradation so
		// CheckPair can surface it as an error.
		m, sat, limited = nil, true, true
		d.stats.SearchLimitHits++
		if d.limitErr == nil {
			d.limitErr = fmt.Errorf("detect: pair (%s, %s): %w", apps[0], apps[1], err)
		}
	}
	if !d.opts.DisableReuse && key != "" {
		d.satCache[key] = satResult{sat: sat, witness: m, apps: apps, limited: limited}
		d.noteKey(apps[0], key)
		if apps[1] != apps[0] {
			d.noteKey(apps[1], key)
		}
	}
	return m, sat
}

// noteKey records key in app's satCache key index (see keysByApp). Two
// map writes on the solve path — noise next to an actual solver run —
// buy O(1)-per-entry eviction on reconfigure.
func (d *Detector) noteKey(app, key string) {
	if app == "" {
		return
	}
	s := d.keysByApp[app]
	if s == nil {
		s = map[string]struct{}{}
		d.keysByApp[app] = s
	}
	s[key] = struct{}{}
}

// noteLimited re-raises the degradation of a budget-limited cached
// verdict for the current CheckPair call (the cached answer is still the
// conservative one the original solve produced).
func (d *Detector) noteLimited(r satResult) {
	if r.limited && d.limitErr == nil {
		d.limitErr = fmt.Errorf("detect: pair (%s, %s): cached verdict was budget-degraded: %w",
			r.apps[0], r.apps[1], solver.ErrSearchLimit)
	}
}

// pairAppsC names the two participant apps of a compiled rule pair for
// satCache eviction bookkeeping.
func pairAppsC(c1, c2 *compiledRule) [2]string { return [2]string{c1.r.App, c2.r.App} }

// overlapKey identifies the merged-situation query for a rule pair
// (unordered), enabling the AR→CT/SD/LT reuse.
func overlapKey(c1, c2 *compiledRule) string {
	a, b := c1.qid, c2.qid
	if b < a {
		a, b = b, a
	}
	return "overlap:" + a + "|" + b
}

func condKey(c1, c2 *compiledRule) string {
	a, b := c1.qid, c2.qid
	if b < a {
		a, b = b, a
	}
	return "cond:" + a + "|" + b
}

// situationsOverlap checks SAT(T1 ∧ C1 ∧ T2 ∧ C2) — the paper's
// overlapping-condition detection for Action-Interference.
func (d *Detector) situationsOverlap(c1, c2 *compiledRule) (solver.Model, bool) {
	return d.solveCompiled(overlapKey(c1, c2), pairAppsC(c1, c2),
		c1.situDecls, c2.situDecls, c1.situation, c2.situation)
}

// conditionsOverlap checks SAT(C1 ∧ C2) for Trigger-Interference. When the
// merged-situation query for the same pair was already solved satisfiable
// (the AR/GC check), its result is reused: T1∧C1∧T2∧C2 SAT implies
// C1∧C2 SAT (the Fig. 9 AR→CT/SD/LT green arrow).
func (d *Detector) conditionsOverlap(c1, c2 *compiledRule) (solver.Model, bool) {
	if !d.opts.DisableReuse {
		if r, ok := d.satCache[overlapKey(c1, c2)]; ok && r.sat {
			d.stats.SolverCacheHits++
			d.noteLimited(r)
			return r.witness, true
		}
	}
	return d.solveCompiled(condKey(c1, c2), pairAppsC(c1, c2),
		c1.condDecls, c2.condDecls, c1.condition, c2.condition)
}

// ---------- AR ----------

// contradictoryActions reports whether two actions contradict on the same
// actuator: contradictory commands, or the same command with conflicting
// parameters.
func contradictoryActions(c1, c2 *compiledRule) bool {
	for i := range c1.effects {
		a := &c1.effects[i]
		for j := range c2.effects {
			b := &c2.effects[j]
			if a.varName != b.varName {
				continue
			}
			av, aConst := a.value.(rule.StrVal)
			bv, bConst := b.value.(rule.StrVal)
			if aConst && bConst {
				if av != bv {
					return true
				}
				continue
			}
			ai, aInt := a.value.(rule.IntVal)
			bi, bInt := b.value.(rule.IntVal)
			if aInt && bInt {
				if ai != bi {
					return true
				}
				continue
			}
			// Parameterised commands (setLevel with symbolic params):
			// conflicting unless provably equal.
			if a.value.String() != b.value.String() {
				return true
			}
		}
	}
	return false
}

// detectAR implements Actuator Race detection (Sec. VI-A).
func (d *Detector) detectAR(c1, c2 *compiledRule) (Threat, bool) {
	defer d.endKind(d.beginKind(ActuatorRace))
	if !contradictoryActions(c1, c2) {
		if d.opts.DisableFiltering {
			d.situationsOverlap(c1, c2) // ablation: solve anyway
		}
		return Threat{}, false
	}
	d.stats.Candidates[ActuatorRace]++
	witness, sat := d.situationsOverlap(c1, c2)
	if !sat {
		return Threat{}, false
	}
	d.stats.Found[ActuatorRace]++
	return Threat{
		Kind: ActuatorRace, R1: c1.r, R2: c2.r, Witness: witness,
		Note: fmt.Sprintf("contradictory commands %s vs %s on the same actuator",
			c1.r.Action.Command, c2.r.Action.Command),
	}, true
}

// ---------- GC ----------

// detectGC implements Goal Conflict detection: opposite environment
// effects on a shared goal property plus overlapping situations.
func (d *Detector) detectGC(c1, c2 *compiledRule) (Threat, bool) {
	defer d.endKind(d.beginKind(GoalConflict))
	ef1, ef2 := c1.envEffects, c2.envEffects
	if len(ef1) == 0 || len(ef2) == 0 {
		if d.opts.DisableFiltering {
			d.situationsOverlap(c1, c2) // ablation: solve anyway
		}
		return Threat{}, false
	}
	// Same-actuator contradictions are Actuator Races, not Goal Conflicts.
	sameDevice := sameActionDevice(c1, c2)
	var prop envmodel.Property
	for _, p := range envmodel.Properties {
		if envmodel.Opposite(ef1[p], ef2[p]) && !sameDevice {
			prop = p
			break
		}
	}
	if prop == "" {
		return Threat{}, false
	}
	d.stats.Candidates[GoalConflict]++
	witness, sat := d.situationsOverlap(c1, c2)
	if !sat {
		return Threat{}, false
	}
	d.stats.Found[GoalConflict]++
	return Threat{
		Kind: GoalConflict, R1: c1.r, R2: c2.r, Property: prop, Witness: witness,
		Note: fmt.Sprintf("%s(%s) and %s(%s) have opposite effects on %s",
			c1.r.Action.Subject, c1.r.Action.Command, c2.r.Action.Subject, c2.r.Action.Command, prop),
	}, true
}

// sameActionDevice reports whether both actions target the same physical
// device, from the compiled device identities.
func sameActionDevice(c1, c2 *compiledRule) bool {
	if !c1.actionIsInput || !c2.actionIsInput {
		return c1.r.Action.Subject == c2.r.Action.Subject
	}
	return c1.actionDevKey == c2.actionDevKey
}

// ---------- CT ----------

// detectCT implements directed Covert Triggering detection: R1's action
// triggers R2 either directly (device state) or via the environment.
func (d *Detector) detectCT(c1, c2 *compiledRule) (Threat, bool) {
	defer d.endKind(d.beginKind(CovertTriggering))
	trigProp, channel := d.triggerChannel(c1, c2)
	if channel == "" {
		if d.opts.DisableFiltering {
			d.conditionsOverlap(c1, c2) // ablation: solve anyway
		}
		return Threat{}, false
	}
	d.stats.Candidates[CovertTriggering]++
	witness, sat := d.conditionsOverlap(c1, c2)
	if !sat {
		return Threat{}, false
	}
	d.stats.Found[CovertTriggering]++
	return Threat{
		Kind: CovertTriggering, R1: c1.r, R2: c2.r, Property: trigProp, Witness: witness,
		Note: channel,
	}, true
}

// triggerChannel decides whether A1 can fire T2, returning a description
// of the channel ("" when none).
func (d *Detector) triggerChannel(c1, c2 *compiledRule) (envmodel.Property, string) {
	if c2.trigSkip {
		return "", "" // app-touch and schedules cannot be fired by actions
	}
	// Direct channel: A1 changes the very attribute T2 subscribes to.
	t2Var := c2.trigVar
	for i := range c1.effects {
		eff := &c1.effects[i]
		if eff.varName != t2Var {
			continue
		}
		if c2.trigAnyChange {
			return "", fmt.Sprintf("action %s(%s) changes %s which triggers the rule",
				c1.r.Action.Subject, c1.r.Action.Command, t2Var)
		}
		// Check the trigger constraint against the effect value.
		_, sat := d.solveWalk("", [2]string{}, c2.trigConstraint, c1.effectCs[i])
		if sat {
			return "", fmt.Sprintf("action %s(%s) sets %s to the triggering value",
				c1.r.Action.Subject, c1.r.Action.Command, t2Var)
		}
		return "", ""
	}
	// Environment channel: A1 shifts a property sensed by T2's subject.
	if !c2.trigPropOK {
		return "", ""
	}
	prop := c2.trigProp
	sign := c1.envEffects[prop]
	if sign == envmodel.None {
		return "", ""
	}
	if !signMatchesTrigger(c2, sign) {
		return "", ""
	}
	return prop, fmt.Sprintf("action %s(%s) drives %s (%s) sensed by %s",
		c1.r.Action.Subject, c1.r.Action.Command, prop, sign, c2.r.Trigger.Subject)
}

// canonTriggerVar is the canonical variable T2 subscribes to.
func (d *Detector) canonTriggerVar(app *InstalledApp, r *rule.Rule) string {
	t := r.Trigger
	if t.Subject == "location" {
		return "location." + t.Attribute
	}
	if in := app.Info.Input(t.Subject); in != nil && in.IsDevice() {
		return d.deviceKey(app, t.Subject) + "." + t.Attribute
	}
	return app.Info.Name + "!" + t.EventVar()
}

// signMatchesTrigger checks whether an environment drift direction can
// satisfy the trigger's one-sided bound (any-change triggers always match).
func signMatchesTrigger(c *compiledRule, sign envmodel.Sign) bool {
	if c.trigAnyChange || sign == envmodel.Varies {
		return true
	}
	switch c.trigBoundDir {
	case +1:
		return sign == envmodel.Increase
	case -1:
		return sign == envmodel.Decrease
	default:
		return true
	}
}

// boundDirection inspects a constraint for a one-sided numeric bound:
// +1 for >/>=, -1 for </<=, 0 otherwise.
func boundDirection(c rule.Constraint) int {
	switch x := c.(type) {
	case rule.Cmp:
		lIsVar := false
		if v, ok := x.L.(rule.Var); ok && v.Kind != rule.VarUserInput {
			lIsVar = true
		}
		switch x.Op {
		case rule.OpGt, rule.OpGe:
			if lIsVar {
				return +1
			}
			return -1
		case rule.OpLt, rule.OpLe:
			if lIsVar {
				return -1
			}
			return +1
		}
	case rule.And:
		for _, sub := range x.Cs {
			if dir := boundDirection(sub); dir != 0 {
				return dir
			}
		}
	}
	return 0
}

// ---------- EC / DC ----------

// detectCondInterference implements directed Enabling/Disabling-Condition
// detection: does A1 change the satisfaction of C2?
func (d *Detector) detectCondInterference(c1, c2 *compiledRule) (Threat, bool) {
	defer d.endKind(d.beginKind(EnablingCondition))
	if c2.condAlways {
		return Threat{}, false
	}
	condF := c2.condition

	// Candidate check: A1 touches a device attribute in C2, or an
	// environment property sensed by a variable in C2.
	var effectCs []rule.Constraint
	var prop envmodel.Property
	touched := false
	for i := range c1.effects {
		if _, ok := c2.condVarSet[c1.effects[i].varName]; ok {
			touched = true
			effectCs = append(effectCs, c1.effectCs[i])
		}
	}
	if !touched {
		for _, ep := range c2.condEnvProps {
			if c1.envEffects[ep.prop] != envmodel.None {
				touched = true
				prop = ep.prop
				// Setpoint-style parametrised effects produce a bound on
				// the sensed variable (the paper's thermostat example).
				if bc := setpointBound(c1, ep.varName); bc != nil {
					effectCs = append(effectCs, bc)
				}
				break
			}
		}
	}
	if !touched {
		if d.opts.DisableFiltering {
			key := "ec:" + c1.qid + "|" + c2.qid
			d.solveWalk(key, pairAppsC(c1, c2), condF) // ablation: solve anyway
		}
		return Threat{}, false
	}
	d.stats.Candidates[EnablingCondition]++

	// Merge the effect constraints with C2: SAT ⇒ may enable (EC);
	// UNSAT ⇒ disables (DC).
	key := "ec:" + c1.qid + "|" + c2.qid
	witness, sat := d.solveWalk(key, pairAppsC(c1, c2), append([]rule.Constraint{condF}, effectCs...)...)
	if sat {
		d.stats.Found[EnablingCondition]++
		return Threat{
			Kind: EnablingCondition, R1: c1.r, R2: c2.r, Property: prop, Witness: witness,
			Note: "action can make the other rule's condition satisfiable",
		}, true
	}
	d.stats.Found[DisablingCond]++
	return Threat{
		Kind: DisablingCond, R1: c1.r, R2: c2.r, Property: prop,
		Note: "action makes the other rule's condition unsatisfiable",
	}, true
}

// setpointBound models parameterised thermostat-style effects: setting a
// heating setpoint to T bounds the sensed temperature variable from below.
func setpointBound(c *compiledRule, sensedVar string) rule.Constraint {
	if c.setpointTerm == nil {
		return nil
	}
	v := rule.Var{Name: sensedVar, Kind: rule.VarDeviceAttr, Type: rule.TypeInt}
	switch c.r.Action.Command {
	case "setHeatingSetpoint":
		return rule.Cmp{Op: rule.OpGe, L: v, R: c.setpointTerm}
	case "setCoolingSetpoint":
		return rule.Cmp{Op: rule.OpLe, L: v, R: c.setpointTerm}
	}
	return nil
}

// ---------- chained threats (Sec. VI-D) ----------

// Chain is a sequence of rules linked by accepted or newly found
// interferences.
type Chain struct {
	Rules []*rule.Rule
	Kinds []Kind
}

func (c Chain) String() string {
	var parts []string
	for i, r := range c.Rules {
		parts = append(parts, r.QualifiedID())
		if i < len(c.Kinds) {
			parts = append(parts, "-"+string(c.Kinds[i])+"->")
		}
	}
	return strings.Join(parts, " ")
}

// FindChains searches the digraph of accepted pairs plus the given new
// threats for interference chains of length >= 2 hops involving the new
// threats.
func (d *Detector) FindChains(newThreats []Threat, maxLen int) []Chain {
	if maxLen <= 0 {
		maxLen = 4
	}
	// Chains propagate only through trigger/condition interference; most
	// installs report none (or only AR/GC), so skip the graph build — on
	// the fleet's install path this runs for every install of every home.
	if !hasChainEdges(d.accepted) && !hasChainEdges(newThreats) {
		return nil
	}
	type edge struct {
		to   *rule.Rule
		kind Kind
	}
	adj := map[string][]edge{}
	nodes := map[string]*rule.Rule{}
	addEdge := func(t Threat) {
		// Only trigger/condition interference propagates effects onward.
		switch t.Kind {
		case CovertTriggering, SelfDisabling, LoopTriggering, EnablingCondition, DisablingCond:
			adj[t.R1.QualifiedID()] = append(adj[t.R1.QualifiedID()], edge{to: t.R2, kind: t.Kind})
			nodes[t.R1.QualifiedID()] = t.R1
			nodes[t.R2.QualifiedID()] = t.R2
		}
	}
	for _, t := range d.accepted {
		addEdge(t)
	}
	for _, t := range newThreats {
		addEdge(t)
	}
	var chains []Chain
	var dfs func(cur *rule.Rule, path []*rule.Rule, kinds []Kind, onPath map[string]bool)
	dfs = func(cur *rule.Rule, path []*rule.Rule, kinds []Kind, onPath map[string]bool) {
		if len(path) > maxLen {
			return
		}
		if len(path) >= 3 {
			chains = append(chains, Chain{
				Rules: append([]*rule.Rule(nil), path...),
				Kinds: append([]Kind(nil), kinds...),
			})
		}
		for _, e := range adj[cur.QualifiedID()] {
			id := e.to.QualifiedID()
			if onPath[id] {
				continue
			}
			onPath[id] = true
			dfs(e.to, append(path, e.to), append(kinds, e.kind), onPath)
			delete(onPath, id)
		}
	}
	for id, r := range nodes {
		dfs(r, []*rule.Rule{r}, nil, map[string]bool{id: true})
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].String() < chains[j].String() })
	return dedupeChains(chains)
}

func hasChainEdges(ts []Threat) bool {
	for _, t := range ts {
		switch t.Kind {
		case CovertTriggering, SelfDisabling, LoopTriggering, EnablingCondition, DisablingCond:
			return true
		}
	}
	return false
}

func dedupeChains(in []Chain) []Chain {
	var out []Chain
	seen := map[string]bool{}
	for _, c := range in {
		k := c.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
