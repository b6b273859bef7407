package detect

import (
	"errors"
	"fmt"
	"slices"
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
// CheckPair, Stats, Apps — mutates or reads memo, stats, curKind, apps
// or accepted without internal locking; the caller must serialize
// all calls on one Detector instance. internal/fleet does exactly that:
// it wraps each home's Detector behind one per-home mutex held for the
// full duration of any call, so those fields are guarded by the fleet's
// per-home lock boundary while distinct homes run in parallel. The
// Detector never writes an InstalledApp: instances are immutable and
// interned process-wide (see intern.go), so every home that installs one
// extraction under equal configurations holds the same pointer, and one
// detector may hold the same instance in two slots. Which pair is intra-
// or cross-app is decided by slot, never by pointer equality.
type Detector struct {
	// apps holds the installed apps by slot, in installation order.
	// Reconfigure swaps a slot's instance; slots never move.
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

	// memo is the solving memo of the rule pair detectPair is checking
	// (see pairMemo); detectPair resets it on entry.
	memo pairMemo

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
	// record their stage spans (compile on reconfigure, candidates,
	// verdict, solve). Set by the caller around one operation (SetSpan)
	// under the same serialization every other detector field relies on;
	// nil — the default — costs only nil checks on the instrumented paths,
	// never in the per-rule-pair core (detectPair is not instrumented,
	// keeping DetectPair allocation-free).
	span *obs.Span
}

// PairRun is one app pair's threats from one Install or Reconfigure:
// Threats is the slice the pair-verdict cache holds, shared fleet-wide and
// read-only (a fresh slice when no cache is configured), and Lo <= Hi are
// the pair's slots in Apps() order (equal for the intra-app pair).
type PairRun struct {
	Threats []Threat
	Lo, Hi  int32
}

// pairMemo holds the answers one rule pair's checks share (Fig. 9's
// green arrows): overlap is SAT(T1 ∧ C1 ∧ T2 ∧ C2), which AR and GC share
// and CT/SD/LT reuse when satisfiable, and cond is SAT(C1 ∧ C2), which
// both CT directions share. Each EC/DC direction is solved once per pair,
// so it has no slot. The memo lives for one detectPair call, so no answer
// outlives the formulas that produced it.
type pairMemo struct {
	overlap, cond satResult
}

// satResult is one memo slot; ok marks it filled.
type satResult struct {
	ok      bool
	sat     bool
	witness solver.Model
}

// New returns a detector for one smart home.
func New(opts Options) *Detector {
	modes := opts.Modes
	if len(modes) == 0 {
		modes = []string{"Home", "Away", "Night"}
	}
	d := &Detector{
		modes:    modes,
		modesSig: modesSignature(modes),
		opts:     opts,
		stats:    newStats(),
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
// It returns InstallRuns' threats in order, in one slice.
func (d *Detector) Install(app *InstalledApp) []Threat {
	return flatten(d.InstallRuns(app, nil))
}

// InstallRuns is Install returning each threatening pair's threats as
// detection produced them, appended to dst: the intra-app pair first,
// then each counterpart in installation order.
//
// Counterpart candidates come from the inverted footprint-channel index
// (see FootprintIndex): only apps sharing an interference channel with
// the new app are paired; the rest are skipped without ever being
// enumerated (counted in Stats.PairsSkippedByIndex as well as
// Stats.PairsPruned, since the index skips exactly the pairs the scan
// path's footprint prune would have rejected one by one). With
// DisablePruning the full scan runs instead.
func (d *Detector) InstallRuns(app *InstalledApp, dst []PairRun) []PairRun {
	slot := int32(len(d.apps))
	dst = appendRun(dst, d.appPairThreats(app, app, true), slot, slot)
	if d.idx != nil {
		// Candidate slots come back sorted, i.e. in installation order, so
		// pairing them directly reproduces the scan path's threat order.
		// The skipped remainder is charged to the prune counters from the
		// running rule-count total — no per-app walk.
		gsp := d.span.Child("candidates")
		d.candBuf = d.idx.AppendCandidates(app.comp.chans, d.candBuf[:0])
		gsp.SetInt("candidates", int64(len(d.candBuf)))
		gsp.End()
		d.stats.PairsIndexed += len(d.candBuf)
		candRules := 0
		for _, s := range d.candBuf {
			old := d.apps[s]
			candRules += len(old.Rules.Rules)
			dst = appendRun(dst, d.appPairVerdict(old, app, false), s, slot)
		}
		n := (d.totalRules - candRules) * len(app.Rules.Rules)
		d.stats.PairsPruned += n
		d.stats.PairsSkippedByIndex += n
		d.idx.Add(app.comp.chans) // slot == len(d.apps)
	} else {
		for s, old := range d.apps {
			dst = appendRun(dst, d.appPairThreats(old, app, false), int32(s), slot)
		}
	}
	d.apps = append(d.apps, app)
	d.totalRules += len(app.Rules.Rules)
	return dst
}

// appendRun appends a pair's threats as a run unless there are none.
func appendRun(dst []PairRun, ts []Threat, lo, hi int32) []PairRun {
	if len(ts) == 0 {
		return dst
	}
	return append(dst, PairRun{Threats: ts, Lo: lo, Hi: hi})
}

// flatten concatenates the runs' threats into one fresh slice.
func flatten(runs []PairRun) []Threat {
	n := 0
	for _, r := range runs {
		n += len(r.Threats)
	}
	if n == 0 {
		return nil
	}
	out := make([]Threat, 0, n)
	for _, r := range runs {
		out = append(out, r.Threats...)
	}
	return out
}

// DetectAppPairCandidate runs the pair detection between two apps already
// known to share a footprint channel (index-generated candidates, or
// intra-app pairs), consulting the shared verdict cache, without recording
// either app as installed. It reproduces exactly what Install computes for
// the (appA, appB) pair: the solving memo lives for one rule pair, so a
// pair's threats and solver counters are identical whether computed by a
// serial install sequence or an independent detector. appA must be the
// earlier-installed side; the intra-app pair passes the same app twice,
// so a caller must not hold one instance as two of its apps (the store
// auditor holds each app name once).
func (d *Detector) DetectAppPairCandidate(appA, appB *InstalledApp) []Threat {
	return d.appPairVerdict(appA, appB, appA == appB)
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
// (the intra-app pair when intra is set), going through the footprint
// prune and, when configured, the fleet-shared pair-verdict cache.
// Index-driven callers that already know the pair shares a channel use
// appPairVerdict directly, skipping the per-pair footprint walk.
func (d *Detector) appPairThreats(appA, appB *InstalledApp, intra bool) []Threat {
	// Footprint prune: when neither app's writes touch anything the other
	// app reads or writes, no interference channel exists and the whole
	// pair is skipped — no solving, no cache traffic. Intra-app pairs are
	// never pruned (a rule set trivially shares its own footprint).
	if !d.opts.DisablePruning && !intra && !appA.comp.chans.SharesChannel(appB.comp.chans) {
		d.stats.PairsPruned += len(appA.Rules.Rules) * len(appB.Rules.Rules)
		return nil
	}
	return d.appPairVerdict(appA, appB, intra)
}

// appPairVerdict runs pair detection for a pair already known to share an
// interference channel (or exempt from pruning), consulting the
// fleet-shared pair-verdict cache when configured.
func (d *Detector) appPairVerdict(appA, appB *InstalledApp, intra bool) []Threat {
	nPairs := len(appA.Rules.Rules) * len(appB.Rules.Rules)
	if intra {
		n := len(appA.Rules.Rules)
		nPairs = n * (n - 1) / 2
	}
	if nPairs == 0 {
		return nil
	}
	if d.opts.Verdicts == nil {
		ssp := d.span.Child("solve")
		out := d.detectAppPair(appA, appB, intra)
		if ssp != nil {
			ssp.SetStr("a", appA.Info.Name)
			ssp.SetStr("b", appB.Info.Name)
			ssp.SetInt("pairs", int64(nPairs))
			ssp.End()
		}
		return out
	}
	vsp := d.span.Child("verdict")
	threats, hit := d.opts.Verdicts.Detect(d.verdictKey(appA, appB, intra), func() []Threat {
		ssp := vsp.Child("solve")
		out := d.detectAppPair(appA, appB, intra)
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
func (d *Detector) detectAppPair(appA, appB *InstalledApp, intra bool) []Threat {
	ca, cb := appA.comp, appB.comp
	var out []Threat
	if intra {
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
// order. Callers must not mutate the returned slice.
func (d *Detector) Accepted() []Threat { return d.accepted }

// Reconfigure replaces an installed app's configuration (the updated()
// lifecycle path: "whenever a new app is installed or the configuration of
// an installed app is updated") and re-runs detection between that app and
// every other installed app. It returns the threats under the new
// configuration; an unknown app name fails with ErrAppNotInstalled.
func (d *Detector) Reconfigure(appName string, cfg *Config) ([]Threat, error) {
	runs, err := d.ReconfigureRuns(appName, cfg, nil)
	return flatten(runs), err
}

// ReconfigureRuns is Reconfigure returning each threatening pair's threats
// as detection produced them, appended to dst: the intra-app pair first,
// then each counterpart in slot order. The app's slot now holds the
// interned instance of its rules under cfg (nil means no bindings); the
// previous instance is left as it was, since other homes may hold it.
//
// Like Install, counterpart candidates come from the footprint-channel
// index: only pairs whose footprint intersects the reconfigured app are
// re-solved — the index postings are updated to the app's new footprint
// first, so candidates reflect the new bindings.
func (d *Detector) ReconfigureRuns(appName string, cfg *Config, dst []PairRun) ([]PairRun, error) {
	slot := -1
	for i, a := range d.apps {
		if a.Info.Name == appName {
			slot = i
			break
		}
	}
	if slot < 0 {
		return dst, fmt.Errorf("%w: %q", ErrAppNotInstalled, appName)
	}
	old := d.apps[slot]
	csp := d.span.Child("compile")
	target := internApp(old.Info, old.Rules, cfg)
	csp.End()
	d.apps[slot] = target
	s32 := int32(slot)
	if d.idx != nil {
		gsp := d.span.Child("candidates")
		d.idx.Update(slot, target.comp.chans)
		d.candBuf = d.idx.AppendCandidates(target.comp.chans, d.candBuf[:0])
		gsp.SetInt("candidates", int64(len(d.candBuf)))
		gsp.End()
		dst = appendRun(dst, d.appPairThreats(target, target, true), s32, s32)
		// Sorted candidate slots reproduce the scan path's pair order; the
		// target's own slot is skipped (the intra pair already ran), and
		// the never-generated remainder is charged to the prune counters
		// from the running rule-count total.
		tr := len(target.Rules.Rules)
		candRules := 0
		for _, s := range d.candBuf {
			if s == s32 {
				continue
			}
			other := d.apps[s]
			d.stats.PairsIndexed++
			candRules += len(other.Rules.Rules)
			dst = appendRun(dst, d.appPairVerdict(other, target, false), min(s, s32), max(s, s32))
		}
		n := (d.totalRules - tr - candRules) * tr
		d.stats.PairsPruned += n
		d.stats.PairsSkippedByIndex += n
		return dst, nil
	}
	dst = appendRun(dst, d.appPairThreats(target, target, true), s32, s32)
	for s, other := range d.apps {
		if s == slot {
			continue
		}
		dst = appendRun(dst, d.appPairThreats(other, target, false), min(int32(s), s32), max(int32(s), s32))
	}
	return dst, nil
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
// mistaking it for a clean result. Nothing is memoised across calls, so a
// repeat CheckPair solves again and reports the degradation again.
// (Verdicts served from a fleet-shared PairVerdictCache carry no such
// marker; fleet-level degradation is monitored via Stats.SearchLimitHits /
// the fleet's SolverLimitHits rollup instead.)
func (d *Detector) CheckPair(appA *InstalledApp, r1 *rule.Rule, appB *InstalledApp, r2 *rule.Rule) ([]Threat, error) {
	c1 := compiledFor(appA, r1)
	c2 := compiledFor(appB, r2)
	d.limitErr = nil
	out := d.detectPair(c1, c2)
	err := d.limitErr
	d.limitErr = nil
	return out, err
}

// detectPair is the compiled-pair core behind DetectPair/CheckPair.
func (d *Detector) detectPair(c1, c2 *compiledRule) []Threat {
	d.stats.PairsChecked++
	d.memo = pairMemo{}
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
// formulas of the rule pair (c1, c2), declaring variables from the
// precompiled plans and memoising the answer in slot.
func (d *Detector) solveCompiled(slot *satResult, c1, c2 *compiledRule, declsA, declsB []varDecl, f1, f2 rule.Constraint) (solver.Model, bool) {
	if !d.opts.DisableReuse && slot.ok {
		d.stats.SolverCacheHits++
		return slot.witness, slot.sat
	}
	p := solver.NewProblem()
	d.declareGroups(p, c1, c2, declsA, declsB)
	p.AddConstraint(f1)
	p.AddConstraint(f2)
	m, sat := d.runSolve(p, c1, c2)
	*slot = satResult{ok: true, sat: sat, witness: m}
	return m, sat
}

// solveWalk decides satisfiability of an ad-hoc formula set (effect
// merges, setpoint bounds): variables are declared by walking the
// formulas.
func (d *Detector) solveWalk(c1, c2 *compiledRule, formulas ...rule.Constraint) (solver.Model, bool) {
	p := solver.NewProblem()
	d.declareVars(p, c1, c2, formulas...)
	for _, f := range formulas {
		p.AddConstraint(f)
	}
	return d.runSolve(p, c1, c2)
}

// runSolve executes a prepared problem for the rule pair (c1, c2), times
// it against the current threat kind and applies the conservative
// budget-exhaustion policy.
func (d *Detector) runSolve(p *solver.Problem, c1, c2 *compiledRule) (solver.Model, bool) {
	d.stats.SolverCalls++
	if d.opts.SolverNodeCap > 0 {
		p.SetNodeCap(d.opts.SolverNodeCap)
	}
	solveStart := time.Now()
	m, sat, err := p.Solve()
	d.stats.SolveNS[d.curKind] += time.Since(solveStart).Nanoseconds()
	if err != nil {
		// Search-limit exhaustion: be conservative and report
		// satisfiable-without-witness (a potential threat is surfaced to
		// the user rather than hidden), and record the degradation so
		// CheckPair can surface it as an error.
		m, sat = nil, true
		d.stats.SearchLimitHits++
		if d.limitErr == nil {
			d.limitErr = fmt.Errorf("detect: pair (%s, %s): %w", c1.r.App, c2.r.App, err)
		}
	}
	return m, sat
}

// situationsOverlap checks SAT(T1 ∧ C1 ∧ T2 ∧ C2) — the paper's
// overlapping-condition detection for Action-Interference.
func (d *Detector) situationsOverlap(c1, c2 *compiledRule) (solver.Model, bool) {
	return d.solveCompiled(&d.memo.overlap, c1, c2,
		c1.situDecls, c2.situDecls, c1.situation, c2.situation)
}

// conditionsOverlap checks SAT(C1 ∧ C2) for Trigger-Interference. When the
// merged-situation query for the same pair was already solved satisfiable
// (the AR/GC check), its result is reused: T1∧C1∧T2∧C2 SAT implies
// C1∧C2 SAT (the Fig. 9 AR→CT/SD/LT green arrow).
func (d *Detector) conditionsOverlap(c1, c2 *compiledRule) (solver.Model, bool) {
	if r := &d.memo.overlap; !d.opts.DisableReuse && r.ok && r.sat {
		d.stats.SolverCacheHits++
		return r.witness, true
	}
	return d.solveCompiled(&d.memo.cond, c1, c2,
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
		_, sat := d.solveWalk(c1, c2, c2.trigConstraint, c1.effectCs[i])
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
func canonTriggerVar(app *InstalledApp, r *rule.Rule) string {
	t := r.Trigger
	if t.Subject == "location" {
		return "location." + t.Attribute
	}
	if in := app.Info.Input(t.Subject); in != nil && in.IsDevice() {
		return deviceKey(app, t.Subject) + "." + t.Attribute
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
			d.solveWalk(c1, c2, condF) // ablation: solve anyway
		}
		return Threat{}, false
	}
	d.stats.Candidates[EnablingCondition]++

	// Merge the effect constraints with C2: SAT ⇒ may enable (EC);
	// UNSAT ⇒ disables (DC).
	witness, sat := d.solveWalk(c1, c2, append([]rule.Constraint{condF}, effectCs...)...)
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

// FindChains lists the interference chains of 2 to maxLen-1 hops
// (default maxLen 4) in the digraph whose edges are the trigger and
// condition threats (CT, SD, LT, EC, DC) among the accepted ones plus
// newThreats. The search starts from every rule in that graph, so a
// chain need not pass through a new threat: every simple path of two or
// more hops is listed once, in the order of its String form.
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
	adj := map[*rule.Rule][]edge{}
	var nodes []*rule.Rule // in first-seen order
	addNode := func(r *rule.Rule) {
		if _, ok := adj[r]; !ok {
			adj[r] = nil
			nodes = append(nodes, r)
		}
	}
	addEdge := func(t Threat) {
		// Only trigger/condition interference propagates effects onward.
		switch t.Kind {
		case CovertTriggering, SelfDisabling, LoopTriggering, EnablingCondition, DisablingCond:
			addNode(t.R1)
			addNode(t.R2)
			adj[t.R1] = append(adj[t.R1], edge{to: t.R2, kind: t.Kind})
		}
	}
	for _, t := range d.accepted {
		addEdge(t)
	}
	for _, t := range newThreats {
		addEdge(t)
	}
	var chains []Chain
	// The path is at most maxLen rules long, so a scan of it is the
	// on-path test.
	var dfs func(path []*rule.Rule, kinds []Kind)
	dfs = func(path []*rule.Rule, kinds []Kind) {
		if len(path) > maxLen {
			return
		}
		if len(path) >= 3 {
			chains = append(chains, Chain{
				Rules: append([]*rule.Rule(nil), path...),
				Kinds: append([]Kind(nil), kinds...),
			})
		}
		for _, e := range adj[path[len(path)-1]] {
			if slices.Contains(path, e.to) {
				continue
			}
			dfs(append(path, e.to), append(kinds, e.kind))
		}
	}
	for _, r := range nodes {
		dfs([]*rule.Rule{r}, nil)
	}
	return sortUniqueChains(chains)
}

// sortUniqueChains sorts chains by their String form and drops the
// repeats, computing each chain's key once, and only when there are two
// or more chains to order.
func sortUniqueChains(chains []Chain) []Chain {
	if len(chains) < 2 {
		return chains
	}
	keys := make([]string, len(chains))
	for i := range chains {
		keys[i] = chains[i].String()
	}
	sort.Sort(chainsByKey{chains, keys})
	out := chains[:0]
	for i := range chains {
		if i == 0 || keys[i] != keys[i-1] {
			out = append(out, chains[i])
		}
	}
	return out
}

// chainsByKey sorts chains and their keys together.
type chainsByKey struct {
	chains []Chain
	keys   []string
}

func (c chainsByKey) Len() int           { return len(c.chains) }
func (c chainsByKey) Less(i, j int) bool { return c.keys[i] < c.keys[j] }
func (c chainsByKey) Swap(i, j int) {
	c.chains[i], c.chains[j] = c.chains[j], c.chains[i]
	c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
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
