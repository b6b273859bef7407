// Package audit is the store auditor: it runs the paper's store-audit
// workload (every app against every other app, plus each app against
// itself) and keeps its findings current as apps are submitted, updated
// and removed. One engine serves both uses. A full audit is one Apply of
// the whole store on a fresh Auditor; a store revision is one Apply of
// the changed apps on a long-lived one.
//
// # Serial install order
//
// A serial audit installs apps one by one into a single detector; install
// j checks the pairs (j,j), (0,j), …, (j−1,j). Apply reports its findings
// in exactly that order, and a cold Apply reports the same threats and
// the same detector counters as that serial sequence at any worker count
// (pinned by the tests against a one-detector oracle).
//
// # Index-driven work items
//
// Tasks are not the n·(n−1)/2 grid: they come from an inverted
// footprint-channel index (detect.FootprintIndex), so only app pairs
// sharing an interference channel are ever materialized. The pairs
// skipped are exactly those the per-pair footprint prune would have
// rejected, so the output matches the serial scan while candidate
// generation scales with channel overlap instead of n². The skipped rule
// pairs are charged to PairsPruned and PairsSkippedByIndex the way
// Detector.Install charges them.
//
// # Incremental revisions
//
// The Auditor holds the store's footprint index, its compiled apps and
// every pair's current verdict across revisions, so applying a batch
// costs O(Δ · overlap): only the changed apps re-extract and recompile,
// and only the pairs whose footprints intersect a changed app are
// re-checked. Untouched pairs keep their cached verdicts, which is sound
// because a pair's threats are a pure function of its two apps and the
// mode universe, and complete because the footprint prune is sound: a
// pair that stops sharing a channel provably has no threats, so dropping
// its verdict without solving is exact.
//
// Every applied batch produces a monotonically versioned Revision with a
// findings delta — threats added and resolved per app pair, in serial
// install order — published through internal/events and queryable as a
// feed: FindingsSince(rev) replays the retained per-revision deltas, or
// answers with a Reset snapshot when the asked-for revision has aged out
// of the bounded history. The full active set (Findings) is byte-identical
// to a cold Apply of the current store, pinned by the churn property test
// in incremental_test.go.
//
// # Concurrency model
//
// Extraction and compilation run first, in parallel, each changed app on
// one worker, through an optional shared extractcache. The compiled-set
// attach is an unsynchronized write on the InstalledApp, so it finishes
// before the app is shared read-only across workers. Pair checks then fan
// out over a work-stealing worker pool, one detector per worker; workers
// share only immutable data and write disjoint result slots. A pair's
// threats are identical whether a serial install sequence or an
// independent detector computes them: compiled rule sets are pure
// functions of the apps, the solver's per-pair reuse cache never crosses
// pairs, and the only cross-app state a pair check reads — the enum-input
// options of the pair's own two apps — is recorded before checking. The
// engine is race-clean under -race.
package audit

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"homeguard/internal/detect"
	"homeguard/internal/events"
	"homeguard/internal/extractcache"
	"homeguard/internal/obs"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// App is one audit input: either an already-extracted result or a source
// to extract.
type App struct {
	// Name overrides the app's definition() name (extraction-time only).
	Name string
	// Source is the SmartApp Groovy source; used when Res is nil.
	Source string
	// Res is a pre-extracted result; takes precedence over Source. An
	// app submitted as a Res has no persisted form: an auditor with a
	// WAL attached fails it with ErrNoSource, and Snapshot fails while
	// the store holds one.
	Res *symexec.Result
	// Config carries installation-time bindings; nil means type-level
	// device identity.
	Config *detect.Config
}

// ErrUnknownApp reports a Batch remove of an app the store does not hold.
var ErrUnknownApp = errors.New("audit: app not in store")

// ErrEmptyBatch reports an Apply with no upserts and no removes.
var ErrEmptyBatch = errors.New("audit: empty batch")

// ErrNoSource reports an app submitted as a pre-extracted Res where the
// store must persist it: the WAL and the checkpoint hold each app as
// its source.
var ErrNoSource = errors.New("audit: app has no source to persist")

// DefaultRevisionHistory bounds the per-revision deltas retained for
// FindingsSince; older feeds degrade to a Reset snapshot.
const DefaultRevisionHistory = 256

// Batch is one store mutation set: apps to submit or update (keyed by
// name — a name already in the store is an update, a new name a submit)
// and apps to remove. Removes apply before upserts, so a batch that
// removes and resubmits one name reinstalls it at the end of the store
// order.
type Batch struct {
	Upserts []App
	Removes []string
}

// Finding is one active threat attributed to its app pair. App1 is the
// earlier-installed side (App1 == App2 for intra-app threats), matching
// the serial install order deltas are reported in.
type Finding struct {
	App1   string
	App2   string
	Threat detect.Threat
}

// Revision is the outcome of one applied batch.
type Revision struct {
	// Rev is the store revision this batch produced (monotonic from 1).
	Rev uint64
	// Added and Resolved are the findings delta against the previous
	// revision, each in serial install order.
	Added    []Finding
	Resolved []Finding
	// Apps is the store size after the batch.
	Apps int
	// Pairs counts the app pairs re-checked for this revision.
	Pairs int
	// Errors records per-app failures (extraction errors, removes of
	// unknown apps) by app name; failed upserts leave the store entry
	// unchanged.
	Errors map[string]error
	// Stats aggregates the worker detectors' counters for the batch plus
	// the index work of its candidate generation (PairsIndexed, and the
	// rule pairs never generated in PairsSkippedByIndex and PairsPruned),
	// charged as Detector.Install charges them.
	Stats detect.Stats
	// Duration is the wall-clock cost of applying the batch.
	Duration time.Duration
}

// Feed is a findings-feed response: the delta between a client's last
// seen revision and the store's current one.
type Feed struct {
	// Rev is the store's current revision; Since echoes the request.
	Rev   uint64
	Since uint64
	// Reset reports that Since has aged out of the retained history:
	// Added then carries the full active set and the client must drop
	// its local state instead of applying a delta.
	Reset    bool
	Added    []Finding
	Resolved []Finding
}

// AuditorOptions tune an incremental auditor.
type AuditorOptions struct {
	// Workers bounds the pair-check worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Detector is applied to every worker's detector (modes, ablations,
	// shared verdict cache).
	Detector detect.Options
	// Extract, when non-nil, is the shared extraction cache upsert
	// sources run through.
	Extract *extractcache.Cache
	// History bounds the revisions retained for FindingsSince (default
	// DefaultRevisionHistory).
	History int
	// Obs, when non-nil, records an "audit.apply" span per batch and
	// publishes the homeguard_audit_* revision metrics.
	Obs *obs.Observer
	// Events, when non-nil, receives one revision event plus one finding
	// event per added/resolved finding for every applied batch.
	Events *events.Writer
}

// storeApp is one installed store entry: the compiled app, its index
// slot and its position in the store (install) order. batch is the
// revision whose Apply last submitted or updated the app: during that
// Apply it marks the app as changed. override (empty when none) and src
// are what the app was extracted from, its persisted form; an app
// submitted as a Res has none, and preExtracted marks it.
type storeApp struct {
	name         string
	override     string
	src          string
	preExtracted bool
	app          *detect.InstalledApp
	slot         int
	pos          int
	batch        uint64
	// verdicts holds the current threats of every pair of this app that
	// HAS threats, keyed by the counterpart (the app itself for the intra
	// pair). Clean pairs are absent — the delta diff treats missing as
	// empty — and both sides of a cross pair hold the same slice, so
	// invalidating an app's pairs costs O(degree).
	verdicts map[*storeApp][]detect.Threat
}

// Auditor is the long-lived incremental store auditor. All methods are
// goroutine-safe; Apply calls serialize, with the pair checks of one
// batch fanning out over an internal worker pool.
type Auditor struct {
	mu      sync.Mutex
	opts    AuditorOptions
	workers int
	idx     *detect.FootprintIndex

	slots  []*storeApp // by index slot; nil entries are free
	free   []int       // freed slots, reused so the index never grows with churn
	byName map[string]*storeApp
	order  []*storeApp // store (install) order; pos fields mirror indices

	rev     uint64
	history []*Revision
	active  int // current finding count, for the gauge

	// wal, when attached, receives one OpAuditBatch record per applied
	// batch; walLSN is the store's recovery watermark (the LSN of the last
	// batch reflected in this auditor's state).
	wal    *wal.Log
	walLSN uint64
}

// NewAuditor returns an empty store auditor.
func NewAuditor(opts AuditorOptions) *Auditor {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.History <= 0 {
		opts.History = DefaultRevisionHistory
	}
	return &Auditor{
		opts:    opts,
		workers: workers,
		idx:     detect.NewFootprintIndex(),
		byName:  map[string]*storeApp{},
	}
}

// Rev returns the current store revision (0 before the first Apply).
func (a *Auditor) Rev() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rev
}

// Apps returns the store's app names in install order.
func (a *Auditor) Apps() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.order))
	for i, st := range a.order {
		out[i] = st.name
	}
	return out
}

// ActiveFindings returns the current finding count.
func (a *Auditor) ActiveFindings() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// orient orders a pair by store position, earlier-installed side first
// (x == y for the intra pair). Relative store order never changes while
// both apps stay installed — removals splice positions but keep order —
// so a pair's orientation is stable for the verdict's lifetime.
func orient(x, y *storeApp) (lo, hi *storeApp) {
	if y.pos < x.pos {
		return y, x
	}
	return x, y
}

// setVerdict records a pair's non-empty threats on both sides.
func setVerdict(x, y *storeApp, ts []detect.Threat) {
	if x.verdicts == nil {
		x.verdicts = map[*storeApp][]detect.Threat{}
	}
	x.verdicts[y] = ts
	if y.verdicts == nil {
		y.verdicts = map[*storeApp][]detect.Threat{}
	}
	y.verdicts[x] = ts
}

// dropVerdict forgets a pair's threats on both sides.
func dropVerdict(x, y *storeApp) {
	delete(x.verdicts, y)
	delete(y.verdicts, x)
}

// pairPos is a pair's store positions, earlier side first (a == b for
// the intra-app pair).
type pairPos struct{ a, b int }

// before reports whether p comes before q in serial install order:
// ascending later-side position, the intra pair before the cross pairs
// of the same install, then ascending earlier-side position.
func (p pairPos) before(q pairPos) bool {
	if p.b != q.b {
		return p.b < q.b
	}
	if (p.a == p.b) != (q.a == q.b) {
		return p.a == p.b
	}
	return p.a < q.a
}

// orderedFindings collects one side of a findings delta with each
// finding's pair position. It implements sort.Interface over both slices.
type orderedFindings struct {
	fs []Finding
	at []pairPos
}

// add appends one pair's threats; lo is the earlier-installed side.
func (o *orderedFindings) add(lo, hi *storeApp, ts []detect.Threat) {
	for _, t := range ts {
		o.fs = append(o.fs, Finding{lo.name, hi.name, t})
		o.at = append(o.at, pairPos{lo.pos, hi.pos})
	}
}

func (o *orderedFindings) Len() int           { return len(o.fs) }
func (o *orderedFindings) Less(i, j int) bool { return o.at[i].before(o.at[j]) }
func (o *orderedFindings) Swap(i, j int) {
	o.fs[i], o.fs[j] = o.fs[j], o.fs[i]
	o.at[i], o.at[j] = o.at[j], o.at[i]
}

// inOrder returns the findings in serial install order, sorting (stably:
// one pair's threats keep their verdict order) only when they arrived
// out of order.
func (o *orderedFindings) inOrder() []Finding {
	if !sort.IsSorted(o) {
		sort.Stable(o)
	}
	return o.fs
}

// threatIdentity is the delta identity of one threat: kind, the two
// qualified rule IDs, the shared property and the note. The witness is
// excluded on purpose — a re-solved pair may pick a different concrete
// witness for the same interference without churning the feed.
func threatIdentity(t *detect.Threat) string {
	return string(t.Kind) + "\x00" + t.R1.QualifiedID() + "\x00" + t.R2.QualifiedID() +
		"\x00" + string(t.Property) + "\x00" + t.Note
}

// diffThreats computes the multiset delta between one pair's old and new
// verdicts, preserving each side's order.
func diffThreats(old, new []detect.Threat) (added, resolved []detect.Threat) {
	if len(old) == 0 {
		return new, nil
	}
	if len(new) == 0 {
		return nil, old
	}
	have := make(map[string]int, len(old))
	for i := range old {
		have[threatIdentity(&old[i])]++
	}
	for i := range new {
		id := threatIdentity(&new[i])
		if have[id] > 0 {
			have[id]--
		} else {
			added = append(added, new[i])
		}
	}
	want := make(map[string]int, len(new))
	for i := range new {
		want[threatIdentity(&new[i])]++
	}
	for i := range old {
		id := threatIdentity(&old[i])
		if want[id] > 0 {
			want[id]--
		} else {
			resolved = append(resolved, old[i])
		}
	}
	return added, resolved
}

// Apply mutates the store by one batch and returns the resulting
// revision. Removes run first, then upserts (the last upsert of a name
// within one batch wins); per-app failures land in Revision.Errors
// without failing the batch. Only pairs whose footprints intersect a
// changed app are re-checked — candidates come from the footprint
// index's posting lists, checked over the worker pool with one fresh
// detector per worker — and pairs that stopped sharing any channel are
// resolved without solving (the footprint prune guarantees they are
// clean).
func (a *Auditor) Apply(batch Batch) (*Revision, error) {
	if len(batch.Upserts) == 0 && len(batch.Removes) == 0 {
		return nil, ErrEmptyBatch
	}
	return a.apply(batch, 0)
}

// apply is Apply's engine. A non-zero replayLSN marks boot-time WAL
// replay: the batch's upserts are the logged sources, extracted through
// the cache's Warm, and one that fails to extract fails the replay; the
// empty-batch check is waived (an acked batch whose every op errored
// still produced a revision, and replay must reproduce the revision
// numbering exactly), events/metrics are not re-published, no record is
// re-appended, and a record at or below the persisted watermark is
// skipped as already reflected in the restored checkpoint.
func (a *Auditor) apply(batch Batch, replayLSN uint64) (*Revision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if replayLSN > 0 && a.walLSN >= replayLSN {
		return nil, nil // already in the checkpoint
	}
	start := time.Now()
	var sp *obs.Span
	if a.opts.Obs != nil {
		sp = a.opts.Obs.Tracer.Start("audit.apply")
	}

	rev := &Revision{}
	errAt := func(key string, err error) {
		if rev.Errors == nil {
			rev.Errors = map[string]error{}
		}
		rev.Errors[key] = err
	}

	// Phase 1: extract and compile the upserts in parallel, each on one
	// worker (NewInstalledApp returns the app compiled).
	type prepared struct {
		name, src string
		app       *detect.InstalledApp
	}
	preps := make([]prepared, len(batch.Upserts))
	perr := make([]error, len(batch.Upserts))
	xsp := sp.Child("extract")
	runTasksWorker(len(batch.Upserts), a.workers, func(w, i int) {
		in := &batch.Upserts[i]
		var src string
		res := in.Res
		if res == nil {
			var err error
			if src, res, err = a.extract(in.Source, in.Name, replayLSN > 0); err != nil {
				perr[i] = err
				return
			}
		} else if a.wal != nil {
			perr[i] = ErrNoSource
			return
		}
		name := in.Name
		if name == "" {
			name = res.App.Name
		}
		if name == "" {
			perr[i] = fmt.Errorf("audit: upsert %d has no app name", i)
			return
		}
		preps[i] = prepared{name: name, src: src, app: detect.NewInstalledApp(res, in.Config)}
	})
	if xsp != nil {
		xsp.SetInt("apps", int64(len(batch.Upserts)))
		xsp.End()
	}
	for i, err := range perr {
		if err == nil {
			continue
		}
		if replayLSN > 0 {
			if sp != nil {
				sp.End()
			}
			return nil, fmt.Errorf("audit: replay lsn %d: upsert %d: %w", replayLSN, i, err)
		}
		key := batch.Upserts[i].Name
		if key == "" {
			key = fmt.Sprintf("upsert[%d]", i)
		}
		errAt(key, err)
	}
	// The batch describes a desired end state, not a replay: the last
	// upsert of each name wins.
	last := map[string]int{}
	for i := range preps {
		if perr[i] == nil {
			last[preps[i].name] = i
		}
	}

	var resolved orderedFindings
	resolvePair := func(x, y *storeApp) {
		lo, hi := orient(x, y)
		resolved.add(lo, hi, lo.verdicts[hi])
		dropVerdict(lo, hi)
	}

	// The effective ops — removes that hit an installed app, the winning
	// upsert per name — are what the WAL record carries: replaying them
	// reproduces this batch's end state without the failed inputs.
	var effRemoves []string
	var effUpserts []walUpsert

	// Phase 2: removals. Every pair involving a removed app resolves, the
	// slot's postings clear and the slot goes on the freelist for reuse.
	for _, name := range batch.Removes {
		st := a.byName[name]
		if st == nil {
			errAt(name, ErrUnknownApp)
			continue
		}
		effRemoves = append(effRemoves, name)
		for other := range st.verdicts {
			resolvePair(st, other)
		}
		a.idx.Update(st.slot, nil)
		a.slots[st.slot] = nil
		a.free = append(a.free, st.slot)
		delete(a.byName, name)
		copy(a.order[st.pos:], a.order[st.pos+1:])
		a.order = a.order[:len(a.order)-1]
		for i := st.pos; i < len(a.order); i++ {
			a.order[i].pos = i
		}
	}

	// Phase 3: upserts. Updates keep their store position and index slot;
	// submits append and take a free slot. Every changed app posts its new
	// footprint here, so the index merges the whole batch once, at phase
	// 4's first query.
	var changed []*storeApp
	for i := range preps {
		if perr[i] != nil || last[preps[i].name] != i {
			continue
		}
		p, in := &preps[i], &batch.Upserts[i]
		effUpserts = append(effUpserts, walUpsert{override: in.Name, src: p.src, cfg: in.Config})
		ia := p.app
		if st := a.byName[p.name]; st != nil {
			st.app, st.override, st.src, st.preExtracted = ia, in.Name, p.src, in.Res != nil
			a.idx.Update(st.slot, ia.Channels())
			changed = append(changed, st)
			continue
		}
		st := &storeApp{name: p.name, override: in.Name, src: p.src, preExtracted: in.Res != nil, app: ia}
		if k := len(a.free); k > 0 {
			st.slot = a.free[k-1] // its postings cleared at removal
			a.free = a.free[:k-1]
			a.slots[st.slot] = st
			a.idx.Update(st.slot, ia.Channels())
		} else {
			st.slot = a.idx.Add(ia.Channels())
			a.slots = append(a.slots, st)
		}
		st.pos = len(a.order)
		a.order = append(a.order, st)
		a.byName[p.name] = st
		changed = append(changed, st)
	}

	// Phase 4: candidate pairs, in serial install order. Changed apps are
	// walked in store order; each contributes its intra pair plus every
	// counterpart sharing a channel (posting-list walk — cost scales with
	// actual overlap, not store size) that sits earlier in the store or is
	// unchanged by this batch, so a pair of two changed apps is emitted
	// once, by its later side: the index already holds the whole batch,
	// so the app itself and later changed apps are filtered out. For a cold batch these are exactly the
	// pairs, in exactly the order, a serial install sequence checks, and
	// the counterparts never generated are charged to the prune counters
	// the way Detector.Install charges them. Pairs that had findings but
	// are no longer candidates stopped sharing any channel: the footprint
	// prune proves them clean, so they resolve here without solving.
	gsp := sp.Child("candidates")
	batchID := a.rev + 1
	totalRules, pendingRules := 0, 0
	for _, st := range a.order {
		totalRules += len(st.app.Rules.Rules)
	}
	for _, st := range changed {
		st.batch = batchID
		pendingRules += len(st.app.Rules.Rules)
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].pos < changed[j].pos })
	type ptask struct{ lo, hi *storeApp } // lo is the earlier-installed side
	at := func(t ptask) pairPos { return pairPos{t.lo.pos, t.hi.pos} }
	tasks := make([]ptask, 0, 2*len(changed))
	sorted := true
	addTask := func(x, y *storeApp) {
		lo, hi := orient(x, y)
		t := ptask{lo, hi}
		if n := len(tasks); n > 0 && !at(tasks[n-1]).before(at(t)) {
			sorted = false
		}
		tasks = append(tasks, t)
	}
	var indexed, skipped int
	var buf []int32
	for _, st := range changed {
		nRules := len(st.app.Rules.Rules)
		addTask(st, st)
		// st's counterparts are the unchanged apps and the changed apps
		// already walked, as in a serial install sequence.
		all := a.idx.AppendCandidates(st.app.Channels(), buf[:0])
		buf = all[:0]
		for _, s := range all {
			if other := a.slots[s]; other != st && (other.batch != batchID || other.pos < st.pos) {
				buf = append(buf, s)
			}
		}
		candRules := 0
		for _, s := range buf {
			other := a.slots[s]
			indexed++
			candRules += len(other.app.Rules.Rules)
			addTask(st, other)
		}
		skipped += (totalRules - pendingRules - candRules) * nRules
		pendingRules -= nRules
		for other := range st.verdicts {
			if other == st || other.batch == batchID && other.pos > st.pos {
				continue // always re-checked, or decided by the later changed app
			}
			slot := int32(other.slot)
			if k := sort.Search(len(buf), func(k int) bool { return buf[k] >= slot }); k == len(buf) || buf[k] != slot {
				resolvePair(st, other)
			}
		}
	}
	if !sorted { // a changed app paired with a later unchanged one
		sort.Slice(tasks, func(i, j int) bool { return at(tasks[i]).before(at(tasks[j])) })
	}
	if gsp != nil {
		gsp.SetInt("tasks", int64(len(tasks)))
		gsp.End()
	}

	// Phase 5: pair detection over the work-stealing pool, one fresh
	// detector per worker (the shared InstalledApps are immutable once
	// compiled, so workers share them without locking).
	psp := sp.Child("pairs")
	results := make([][]detect.Threat, len(tasks))
	dets := make([]*detect.Detector, a.workers)
	for w := range dets {
		dets[w] = detect.New(a.opts.Detector)
	}
	runTasksWorker(len(tasks), a.workers, func(w, k int) {
		results[k] = dets[w].DetectAppPairCandidate(tasks[k].lo.app, tasks[k].hi.app)
	})
	rev.Stats = dets[0].Stats()
	for _, d := range dets[1:] {
		rev.Stats.Merge(d.Stats())
	}
	rev.Stats.PairsIndexed += indexed
	rev.Stats.PairsPruned += skipped
	rev.Stats.PairsSkippedByIndex += skipped
	if psp != nil {
		psp.SetInt("pairs", int64(len(tasks)))
		psp.End()
	}

	// Phase 6: delta. Checked pairs diff old against new verdicts by
	// threat identity; tasks run in serial install order, so the added
	// findings need no sort.
	dsp := sp.Child("delta")
	found := 0
	for _, ts := range results {
		found += len(ts)
	}
	rev.Added = make([]Finding, 0, found)
	for k, t := range tasks {
		old := t.lo.verdicts[t.hi]
		newTs := results[k]
		add, res := diffThreats(old, newTs)
		for _, th := range add {
			rev.Added = append(rev.Added, Finding{t.lo.name, t.hi.name, th})
		}
		resolved.add(t.lo, t.hi, res)
		if len(newTs) > 0 {
			setVerdict(t.lo, t.hi, newTs)
		} else if len(old) > 0 {
			dropVerdict(t.lo, t.hi)
		}
	}
	rev.Resolved = resolved.inOrder()
	if dsp != nil {
		dsp.SetInt("added", int64(len(rev.Added)))
		dsp.SetInt("resolved", int64(len(rev.Resolved)))
		dsp.End()
	}

	// Phase 7: version, retain, log, publish. The WAL record is appended
	// after the mutation and before the caller is acknowledged (commit-log
	// semantics, same as the fleet): an append failure returns the batch
	// un-acknowledged, and the log's crash-stop latching refuses every
	// later batch, so recovery never resurrects an un-acked revision.
	// Exactly one record per acked revision — even when every op errored —
	// keeps replayed revision numbering identical to the pre-crash run.
	a.rev++
	rev.Rev = a.rev
	rev.Apps = len(a.order)
	rev.Pairs = len(tasks)
	rev.Duration = time.Since(start)
	a.active += len(rev.Added) - len(rev.Resolved)
	a.history = append(a.history, rev)
	if len(a.history) > a.opts.History {
		a.history = append(a.history[:0:0], a.history[len(a.history)-a.opts.History:]...)
	}
	if replayLSN > 0 {
		// Replayed batches were published before the crash; re-emitting
		// their events or re-counting their metrics would double them.
		a.walLSN = replayLSN
	} else {
		if a.wal != nil {
			payload, err := encodeBatchOp(effRemoves, effUpserts)
			if err == nil {
				var wsp *obs.Span
				if sp != nil {
					wsp = sp.Child("wal.append")
				}
				var lsn uint64
				lsn, err = a.wal.Append(wal.OpAuditBatch, payload)
				if wsp != nil {
					wsp.End()
				}
				if err == nil {
					a.walLSN = lsn
				}
			}
			if err != nil {
				if sp != nil {
					sp.End()
				}
				return nil, fmt.Errorf("audit: rev %d: wal append: %w", rev.Rev, err)
			}
		}
		a.publishEvents(rev)
		a.publishMetrics(rev)
	}
	if sp != nil {
		sp.SetInt("rev", int64(rev.Rev))
		sp.SetInt("added", int64(len(rev.Added)))
		sp.SetInt("resolved", int64(len(rev.Resolved)))
		sp.End()
	}
	return rev, nil
}

// extract extracts one app's source under its name override, through
// the shared cache when there is one, and returns the source the store
// keeps (the cache's canonical copy). warm marks a restore or a replay,
// which extract through Warm and so count no cache lookup.
func (a *Auditor) extract(src, name string, warm bool) (string, *symexec.Result, error) {
	switch {
	case a.opts.Extract == nil:
		res, err := symexec.Extract(src, name)
		return src, res, err
	case warm:
		return a.opts.Extract.Warm(src, name)
	default:
		return a.opts.Extract.ExtractKeyed(src, name)
	}
}

// Findings returns the store's full active finding set in serial install
// order — byte-identical to a cold Apply of the current store and to
// the serial install sequence (pinned by the churn property test).
func (a *Auditor) Findings() []Finding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.findingsLocked()
}

// Threats flattens Findings to the bare threat list.
func (a *Auditor) Threats() []detect.Threat {
	fs := a.Findings()
	out := make([]detect.Threat, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Threat)
	}
	return out
}

func (a *Auditor) findingsLocked() []Finding {
	var out []Finding
	var earlier []*storeApp
	for _, st := range a.order {
		for _, t := range st.verdicts[st] {
			out = append(out, Finding{st.name, st.name, t})
		}
		earlier = earlier[:0]
		for other := range st.verdicts {
			if other.pos < st.pos { // later pairs are listed at the later side
				earlier = append(earlier, other)
			}
		}
		sort.Slice(earlier, func(i, j int) bool { return earlier[i].pos < earlier[j].pos })
		for _, other := range earlier {
			for _, t := range st.verdicts[other] {
				out = append(out, Finding{other.name, st.name, t})
			}
		}
	}
	return out
}

// FindingsSince answers the findings feed for a client that last saw
// revision since: the concatenated per-revision deltas when the retained
// history still covers (since, current], or a Reset snapshot of the full
// active set when since has aged out.
func (a *Auditor) FindingsSince(since uint64) *Feed {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := &Feed{Rev: a.rev, Since: since}
	if since >= a.rev {
		return f
	}
	if n := len(a.history); n > 0 && a.history[0].Rev <= since+1 {
		for _, r := range a.history {
			if r.Rev <= since {
				continue
			}
			f.Added = append(f.Added, r.Added...)
			f.Resolved = append(f.Resolved, r.Resolved...)
		}
		return f
	}
	f.Reset = true
	f.Added = a.findingsLocked()
	return f
}

// publishEvents ships one revision event plus one event per delta
// finding; Publish never blocks (nil writers no-op).
func (a *Auditor) publishEvents(rev *Revision) {
	w := a.opts.Events
	if w == nil {
		return
	}
	w.Publish(events.Event{
		Type: events.TypeRevision, Rev: rev.Rev, Threats: len(rev.Added),
		DurationMs: float64(rev.Duration.Microseconds()) / 1000.0,
	})
	for _, f := range rev.Added {
		w.Publish(events.Event{
			Type: events.TypeFinding, Rev: rev.Rev, App: f.App1, App2: f.App2,
			Kind: string(f.Threat.Kind), Status: events.StatusAdded,
		})
	}
	for _, f := range rev.Resolved {
		w.Publish(events.Event{
			Type: events.TypeFinding, Rev: rev.Rev, App: f.App1, App2: f.App2,
			Kind: string(f.Threat.Kind), Status: events.StatusResolved,
		})
	}
}

// publishMetrics folds one revision into the homeguard_audit_* catalog.
// Registration is idempotent by name, so every Apply may re-ask.
func (a *Auditor) publishMetrics(rev *Revision) {
	o := a.opts.Obs
	if o == nil {
		return
	}
	r := o.Registry
	r.Counter("homeguard_audit_revisions_total", "Store revisions applied by the incremental auditor.").Inc()
	r.Counter("homeguard_audit_pairs_rechecked_total", "App pairs re-checked across incremental revisions.").Add(uint64(rev.Pairs))
	r.Counter("homeguard_audit_findings_added_total", "Findings added across incremental revisions.").Add(uint64(len(rev.Added)))
	r.Counter("homeguard_audit_findings_resolved_total", "Findings resolved across incremental revisions.").Add(uint64(len(rev.Resolved)))
	r.Counter("homeguard_audit_pairs_checked_total", "Rule pairs checked across store revisions.").Add(uint64(rev.Stats.PairsChecked))
	r.Counter("homeguard_audit_solver_calls_total", "Solver invocations across store revisions.").Add(uint64(rev.Stats.SolverCalls))
	r.Gauge("homeguard_audit_store_apps", "Apps currently in the audited store.").Set(int64(rev.Apps))
	r.Gauge("homeguard_audit_findings_active", "Currently active findings across the audited store.").Set(int64(a.active))
}
