// Package fleet scales HomeGuard from one home to many: it manages a
// sharded, goroutine-safe collection of Home instances so one daemon
// process can serve install-time detection for a whole deployment.
//
// # Concurrency model
//
// The underlying detect.Detector is deliberately single-threaded (see the
// package documentation of internal/detect): its satCache, stats and
// curKind fields assume serialized calls. The fleet preserves that
// contract with a two-level locking scheme:
//
//   - homes live in a sharded map (FNV-1a of the home ID picks the
//     shard); each shard has its own RWMutex, so home lookup/creation
//     scales across cores;
//   - every Home carries one mutex that is held for the full duration of
//     any detector call (Install, Reconfigure, FindChains, Accept).
//     Within a home, operations serialize; across homes they run in
//     parallel.
//
// Rule extraction — the dominant cost of an install — happens *outside*
// the per-home lock through a shared content-addressed extractcache.Cache,
// so a hot app store SmartApp is symbolically executed once for the whole
// fleet and concurrent installs of distinct homes never contend.
// Shard and home locks are never held while extracting, and the shard
// lock is never held while a home lock is held, so there is no lock-order
// cycle.
//
// Installed apps are deduplicated the same way: detect.NewInstalledApp
// returns one immutable, compiled instance per extraction result and
// configuration content (canonical formulas, declaration plans, effects,
// footprint channels, verdict signature — detect/compile.go), so a hot
// catalog app is canonicalized once fleet-wide and every home holds a
// reference to it, not a copy. The compiled signature is also what
// PairKey hashing consumes, so addressing a pair verdict costs one
// SHA-256 finalization, not a rule-set serialization.
//
// Detection solving gets the same treatment through a shared
// pairverdict.Cache: each app pair's verdict is content-addressed by both
// apps' canonical rule sets, configurations and mode list, so a catalog
// installed into a million homes is solved once per distinct pair
// fleet-wide, and a home's threat log and ledger hold references to the
// cached verdict slices rather than copies of the threats. Unlike
// extraction, the verdict computation runs *under* the
// computing home's lock (detection reads that home's detector state); a
// home that joins an in-flight entry therefore waits, holding only its own
// home lock, for another home's computation. That cannot deadlock: the
// computation touches exactly one home's lock (its own, already held) and
// never a shard lock, so no cycle through the cache is possible.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"homeguard/internal/detect"
	"homeguard/internal/events"
	"homeguard/internal/extractcache"
	"homeguard/internal/frontend"
	"homeguard/internal/obs"
	"homeguard/internal/pairverdict"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// Sentinel errors, matchable with errors.Is, so callers (the daemon) can
// map them to statuses without parsing message text.
var (
	// ErrUnknownHome reports an operation on a home the fleet has never
	// seen (Install creates homes; the read/update paths do not).
	ErrUnknownHome = errors.New("unknown home")
	// ErrAppNotInstalled reports a reconfigure of an app absent from the
	// target home.
	ErrAppNotInstalled = errors.New("app not installed")
	// ErrAppInstalled reports an install of an app name the home already
	// has: a retried/duplicated install must not pair an app against its
	// own copy or corrupt the home's threat log.
	ErrAppInstalled = errors.New("app already installed")
	// ErrBadThreatIndex reports an AcceptByIndex index outside the
	// home's threat log.
	ErrBadThreatIndex = errors.New("threat index out of range")
	// ErrHomeExists reports an ImportHome into a home ID this fleet
	// already serves with state: a retried adopt after a success (or a
	// routing mistake) must not double-apply a home.
	ErrHomeExists = errors.New("home already exists")
)

// DefaultVerdictEntries bounds the auto-created pair-verdict cache: about
// a million cached verdicts, a few hundred MB worst-case, far above any
// working set a single daemon's live catalog produces but a hard ceiling
// for reconfigure-churn garbage.
const DefaultVerdictEntries = 1 << 20

// DefaultExtractEntries bounds the auto-created extraction cache: 64k
// distinct app sources — far above any real catalog — so a daemon fed
// one-off sources (user-edited copies, fuzzed installs) cannot grow the
// cache without limit. Evictions are visible in the cache Stats and the
// daemon's /metrics.
const DefaultExtractEntries = 1 << 16

// Options tune a Fleet.
type Options struct {
	// Shards is the number of home-map shards (default 16).
	Shards int
	// Detector is applied to every home's detector (modes, ablations).
	Detector detect.Options
	// Cache is the shared extraction cache; a fresh one is created when
	// nil. Passing a cache lets several fleets (or a fleet plus batch
	// tooling) share extraction work.
	Cache *extractcache.Cache
	// Verdicts is the shared pair-verdict cache: app-pair detection
	// results content-addressed by both apps' rule sets, configurations
	// and mode list, so a catalog installed into many homes is solved once
	// fleet-wide. When nil (and DisablePairVerdicts is unset) a cache
	// bounded at DefaultVerdictEntries is created — reconfigure churn
	// re-keys pairs and would otherwise grow the cache without limit.
	// Passing one shares verdicts between fleets the way Cache shares
	// extractions (use pairverdict.New for an unbounded cache). A cache
	// preset in Detector.Verdicts takes precedence over this field (see
	// withDefaults); set only one of the two.
	Verdicts *pairverdict.Cache
	// DisablePairVerdicts runs every home's detection without the shared
	// verdict cache (ablation / benchmark contrast). It wins over a
	// supplied Verdicts cache, including one preset in Detector.Verdicts.
	DisablePairVerdicts bool
	// MaxChainLen bounds chained-threat search at install (default 4).
	MaxChainLen int
	// Obs is the process-wide observability bundle. When set, the fleet
	// registers a Collector that publishes every fleet/cache/detector
	// counter into Obs.Registry under the homeguard_* names, and the
	// install/reconfigure paths record per-stage spans through Obs.Tracer
	// (free when the tracer is disabled — spans are nil and every span
	// method no-ops). Nil disables both; the JSON MetricsSnapshot works
	// either way.
	Obs *obs.Observer
	// Events, when set, receives one fire-and-forget event per completed
	// install/reconfigure plus one per reported threat, published AFTER
	// the home lock is released. events.Writer.Publish never blocks (a
	// full buffer drops the oldest buffered event), so a slow or wedged
	// sink can never hold up a verdict. Nil publishes nothing.
	Events *events.Writer
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.MaxChainLen <= 0 {
		o.MaxChainLen = 4
	}
	if o.Cache == nil {
		o.Cache = extractcache.NewBounded(DefaultExtractEntries)
	}
	// Resolve the verdict-cache precedence once, for both layers: after
	// this block o.Verdicts is what the fleet reports (Verdicts() and
	// metrics) and o.Detector.Verdicts is what homes use, and the two can
	// never disagree.
	if o.DisablePairVerdicts {
		// The ablation flag wins over a supplied cache: a contrast run
		// constructed with both set must actually run cache-less.
		o.Verdicts = nil
		o.Detector.Verdicts = nil
	} else if dv := o.Detector.Verdicts; dv != nil {
		// A cache preset at the detector layer is the cache every home
		// will actually use — it wins even over an Options.Verdicts also
		// set, so Verdicts() and metrics always report the live cache. A
		// foreign PairVerdictCache implementation can't be adopted — the
		// fleet then owns no cache and reports none.
		if pc, ok := dv.(*pairverdict.Cache); ok {
			o.Verdicts = pc
		} else {
			o.Verdicts = nil
		}
	} else {
		if o.Verdicts == nil {
			o.Verdicts = pairverdict.NewBounded(DefaultVerdictEntries)
		}
		o.Detector.Verdicts = o.Verdicts
	}
	return o
}

// Fleet is a goroutine-safe manager of many HomeGuard homes.
type Fleet struct {
	opts     Options
	shards   []*shard
	cache    *extractcache.Cache
	verdicts *pairverdict.Cache // nil when DisablePairVerdicts is set
	metrics  *metrics
	obs      *obs.Observer  // nil when Options.Obs unset
	events   *events.Writer // nil when Options.Events unset
	// wal, when attached (AttachWAL), receives one logical op record per
	// mutation, appended inside the home lock before the caller is
	// acknowledged. Nil runs without durability (tests, ephemeral fleets).
	wal *wal.Log

	// tombstones maps removed home IDs to the LSN of their removal
	// record, persisted in the homes snapshot: replay must not let an
	// install record older than the removal resurrect a migrated home
	// after the checkpoint that captured the removal has GC'd the
	// remove record's segment. Bounded by the number of migrations since
	// the fleet's history began. Guarded by tombMu.
	tombMu     sync.Mutex
	tombstones map[string]uint64
}

type shard struct {
	mu    sync.RWMutex
	homes map[string]*home
}

// home is one managed smart home. mu serializes every detector call; the
// detector itself is not safe for concurrent use.
type home struct {
	mu  sync.Mutex
	id  string
	det *detect.Detector
	// log is the home's threat log: every threat reported for this home,
	// in order, held as runs that reference the fleet-shared pair verdicts
	// instead of copying them. Log index i is log[k].ts[i-log[k].base] for
	// the run k whose base is the greatest at or below i. Guarded by mu.
	log []run
	// ledger is the home's incremental threat ledger: the CURRENT threat
	// set, one run index per app pair, in first-report order. Installs
	// append the new app's runs; Reconfigure splices — only the entries
	// whose pair involves the changed app are replaced (or dropped when the
	// new config resolves them), everything else is retained verbatim, so
	// the home's live view is maintained without ever recomputing
	// unaffected pairs. The log stays the append-only history. Guarded by
	// mu.
	ledger []int32
	// detSeen is the detector-counter high-water mark already folded into
	// fleet metrics (see takeDetectorDelta). Guarded by mu.
	detSeen DetectorTotals
	// runBuf and usedBuf are reusable scratch for the detector's runs and
	// spliceLedger. Guarded by mu.
	runBuf  []detect.PairRun
	usedBuf []bool
	// walLSN is the LSN of the last WAL record reflected in this home's
	// state (the ARIES page-LSN idea, per home): set under mu at append
	// time, persisted in snapshots, and compared at replay so a record
	// already captured by the checkpoint is never applied twice. Guarded
	// by mu.
	walLSN uint64
	// ops is the home's history: every install, reconfigure and accept
	// that built its state, in order. The state is a deterministic
	// function of these ops, so checkpoints and export blobs persist the
	// ops and rebuild the rest by replaying them (snapshot.go). Guarded
	// by mu.
	ops []homeOp
	// migrated marks a home DetachHome has exported and removed: a
	// goroutine that looked the home up before the detach and acquires mu
	// after it must fail with ErrUnknownHome instead of mutating (and
	// WAL-appending for) a home whose removal is already logged. Guarded
	// by mu.
	migrated bool
}

// homeOp is one op of a home's history, holding what replaying it
// needs: kind is wal.OpFleetInstall (src, res, cfg — src is the
// extraction cache's canonical copy of the source res was extracted
// from), wal.OpFleetReconfigure (app, cfg) or wal.OpFleetAccept
// (indices). cfg is the resolved config.
type homeOp struct {
	kind    byte
	src     string
	res     *symexec.Result
	app     string
	cfg     *detect.Config
	indices []int
}

// run is one app pair's threats from one install or reconfigure: ts is
// the detector's slice (the pair-verdict cache's, shared and read-only),
// base the log index of ts[0], and lo <= hi the pair's detector slots.
type run struct {
	ts     []detect.Threat
	base   int
	lo, hi int32
}

// logLen returns the number of threats in the log. Callers hold h.mu.
func (h *home) logLen() int {
	if len(h.log) == 0 {
		return 0
	}
	last := &h.log[len(h.log)-1]
	return last.base + len(last.ts)
}

// appendRuns appends the detector's runs to the log and returns the
// threats they hold in one slice: the single run's own slice when there is
// one, else a fresh concatenation. Callers hold h.mu.
func (h *home) appendRuns(runs []detect.PairRun) []detect.Threat {
	base := h.logLen()
	n := 0
	for _, r := range runs {
		h.log = append(h.log, run{ts: r.Threats, base: base + n, lo: r.Lo, hi: r.Hi})
		n += len(r.Threats)
	}
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0].Threats
	}
	out := make([]detect.Threat, 0, n)
	for _, r := range runs {
		out = append(out, r.Threats...)
	}
	return out
}

// threatAt returns log entry i, which must be in range. Callers hold h.mu.
func (h *home) threatAt(i int) detect.Threat {
	k := sort.Search(len(h.log), func(k int) bool { return h.log[k].base > i }) - 1
	return h.log[k].ts[i-h.log[k].base]
}

// spliceLedger applies a reconfigure's re-detection result, the log's
// runs from first on, for the app in slot: entries involving the slot are
// replaced in place by the pair's new run (or dropped when the pair is
// now clean), untouched entries keep their position, and newly
// threatening pairs append at the end. New runs are matched against the
// ledger with a cursor (detection re-pairs candidates in the order they
// first reported, so the match is almost always the cursor position and
// the scan fallback is a rare near-miss). Callers hold h.mu.
func (h *home) spliceLedger(slot int32, first int) {
	fresh := h.log[first:]
	used := h.usedBuf[:0]
	for range fresh {
		used = append(used, false)
	}
	h.usedBuf = used
	next := 0 // cursor into fresh: first run not yet matched
	out := h.ledger[:0]
	for _, k := range h.ledger {
		e := &h.log[k]
		if e.lo != slot && e.hi != slot {
			out = append(out, k)
			continue
		}
		i := next
		if i >= len(fresh) || used[i] || fresh[i].lo != e.lo || fresh[i].hi != e.hi {
			i = -1
			for j := range fresh {
				if !used[j] && fresh[j].lo == e.lo && fresh[j].hi == e.hi {
					i = j
					break
				}
			}
		}
		if i < 0 {
			continue // pair now clean: entry dropped
		}
		used[i] = true
		out = append(out, int32(first+i))
		for next < len(fresh) && used[next] {
			next++
		}
	}
	for i := range fresh {
		if !used[i] {
			out = append(out, int32(first+i))
		}
	}
	h.ledger = out
}

// takeDetectorDelta returns the home detector's counter growth since the
// last call and advances the high-water mark. Callers hold h.mu; the
// delta is folded into fleet metrics after the lock is released so a
// metrics scrape never waits on a home lock.
func (h *home) takeDetectorDelta() DetectorTotals {
	cur := detectorTotalsOf(h.det.Stats())
	delta := cur.minus(h.detSeen)
	h.detSeen = cur
	return delta
}

// installed returns the home's installed app named name and its slot, or
// nil. Callers hold h.mu.
func (h *home) installed(name string) (*detect.InstalledApp, int32) {
	for i, a := range h.det.Apps() {
		if a.Info.Name == name {
			return a, int32(i)
		}
	}
	return nil, -1
}

// The four home mutations — install, reconfigure, acceptByIndex and
// adopt — are each defined once, as the methods below. The live ops,
// WAL replay (wal.go) and the rebuild of a persisted home (snapshot.go)
// all run them, under h.mu or on a home no other goroutine can reach;
// sp, when non-nil, receives their stage spans. Each of the first three
// appends itself to h.ops once it has succeeded.

// install adds res, extracted from src, under cfg, runs
// detection against the home's other apps, and appends the threats to
// the log and the ledger. An app name the home already has fails
// ErrAppInstalled and changes nothing. The returned threats may be the
// shared verdict cache's slice: read only.
func (h *home) install(sp *obs.Span, src string, res *symexec.Result, cfg *detect.Config) ([]detect.Threat, error) {
	if a, _ := h.installed(res.App.Name); a != nil {
		return nil, fmt.Errorf("%w: %q", ErrAppInstalled, res.App.Name)
	}
	// The detector records its stage spans (candidates, verdict, solve)
	// as children of the detect span. SetSpan is legal here because the
	// home lock serializes the detector; the deferred reset keeps a panic
	// from leaking the span into the next operation.
	dsp := sp.Child("detect")
	h.det.SetSpan(dsp)
	defer h.det.SetSpan(nil)
	csp := dsp.Child("compile")
	app := detect.NewInstalledApp(res, cfg)
	csp.End()
	runs := h.det.InstallRuns(app, h.runBuf[:0])
	dsp.End()
	lsp := sp.Child("ledger")
	first := len(h.log)
	threats := h.appendRuns(runs)
	// Every pair of an install involves the new app, so its runs are all
	// fresh ledger entries.
	for k := first; k < len(h.log); k++ {
		h.ledger = append(h.ledger, int32(k))
	}
	clear(runs)
	h.runBuf = runs[:0]
	lsp.End()
	// The history keeps the app's own copy of a non-nil config, so a home
	// holds its bindings once.
	if cfg != nil {
		cfg = app.Config
	}
	h.ops = append(h.ops, homeOp{kind: wal.OpFleetInstall, src: src, res: res, cfg: cfg})
	return threats, nil
}

// reconfigure re-runs detection for an installed app under cfg (the
// resolved configuration: nil means no bindings), appends the threats
// to the log and splices them into the ledger. An app the home lacks
// fails and changes nothing. The returned threats may be the shared
// verdict cache's slice: read only.
func (h *home) reconfigure(sp *obs.Span, app string, cfg *detect.Config) ([]detect.Threat, error) {
	dsp := sp.Child("detect")
	h.det.SetSpan(dsp)
	defer h.det.SetSpan(nil)
	runs, err := h.det.ReconfigureRuns(app, cfg, h.runBuf[:0])
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := sp.Child("splice")
	first := len(h.log)
	threats := h.appendRuns(runs)
	clear(runs)
	h.runBuf = runs[:0]
	a, slot := h.installed(app)
	h.spliceLedger(slot, first)
	ssp.End()
	if cfg != nil {
		cfg = a.Config
	}
	h.ops = append(h.ops, homeOp{kind: wal.OpFleetReconfigure, app: app, cfg: cfg})
	return threats, nil
}

// acceptByIndex accepts the threats at the given threat-log indices. It
// checks every index before accepting any, so an out-of-range index
// fails ErrBadThreatIndex and changes nothing.
func (h *home) acceptByIndex(indices []int) error {
	n := h.logLen()
	for _, i := range indices {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %d (log has %d)", ErrBadThreatIndex, i, n)
		}
	}
	for _, i := range indices {
		h.det.Accept(h.threatAt(i))
	}
	h.ops = append(h.ops, homeOp{kind: wal.OpFleetAccept, indices: slices.Clone(indices)})
	return nil
}

// New creates an empty fleet.
func New(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:       opts,
		shards:     make([]*shard, opts.Shards),
		cache:      opts.Cache,
		verdicts:   opts.Verdicts,
		metrics:    newMetrics(),
		obs:        opts.Obs,
		events:     opts.Events,
		tombstones: map[string]uint64{},
	}
	for i := range f.shards {
		f.shards[i] = &shard{homes: map[string]*home{}}
	}
	if f.obs != nil {
		f.registerCollector(f.obs.Registry)
	}
	return f
}

func (f *Fleet) shardFor(homeID string) *shard {
	h := fnv.New32a()
	h.Write([]byte(homeID))
	return f.shards[h.Sum32()%uint32(len(f.shards))]
}

// homeFor returns the home, creating it on first use.
func (f *Fleet) homeFor(homeID string) *home {
	s := f.shardFor(homeID)
	s.mu.RLock()
	h := s.homes[homeID]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.homes[homeID]; h != nil {
		return h
	}
	// opts.Detector was fully resolved by withDefaults (verdict-cache
	// precedence applied there, in one place), so homes and the reporting
	// layer can never disagree about which cache is in use.
	h = &home{id: homeID, det: detect.New(f.opts.Detector)}
	s.homes[homeID] = h
	f.metrics.homeCreated()
	return h
}

// lookup returns the home or nil without creating it.
func (f *Fleet) lookup(homeID string) *home {
	s := f.shardFor(homeID)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.homes[homeID]
}

// InstallResult is what an install returns to the frontend; it mirrors
// the single-home homeguard.InstallResult.
type InstallResult struct {
	HomeID string
	App    symexec.AppInfo
	Rules  []*rule.Rule
	// Threats are the install's threats in log order. The slice may be
	// the fleet's cached verdict for a pair, shared: read only.
	Threats []detect.Threat
	// ThreatLogBase is the index of Threats[0] in the home's threat log
	// (AcceptByIndex addressing): Threats[i] is log entry ThreatLogBase+i.
	ThreatLogBase int
	// Chains are multi-hop interference chains through previously
	// accepted threats (Sec. VI-D).
	Chains []detect.Chain
	// Report is the rendered installation dialog, and Lines the texts
	// of its rule, threat and chain lines (substrings of Report).
	Report string
	Lines  frontend.Lines
	// Warnings are extraction diagnostics.
	Warnings []string
}

// opSpan returns the pipeline span for one fleet operation: a child of
// the span carried by ctx when there is one (the daemon's HTTP handlers
// root a request span there), else a fresh root span from the fleet's
// tracer. Nil — and free — when tracing is off.
func (f *Fleet) opSpan(ctx context.Context, name string) *obs.Span {
	if parent := obs.Trace(ctx); parent != nil {
		return parent.Child(name)
	}
	if f.obs != nil {
		return f.obs.Tracer.Start(name)
	}
	return nil
}

// Install extracts src (through the shared cache) and runs CAI detection
// against every app already installed in the identified home, creating
// the home on first use. cfg may be nil (type-level device identity).
// Installing an app name the home already has fails with ErrAppInstalled
// (retried requests must not duplicate the app); use Reconfigure to
// change an installed app's configuration.
//
// ctx is first-class: when it carries an obs.Span (or the fleet's
// tracer is enabled), the install records per-stage spans — extract,
// detect (with the detector's compile/candidates/verdict/solve
// children), chains, ledger, report — and a ctx already expired at a
// stage boundary aborts the install with ctx.Err() before detection
// mutates the home. Callers without a request context pass
// context.Background().
//
// Install is Extract then InstallExtracted.
func (f *Fleet) Install(ctx context.Context, homeID, src string, cfg *detect.Config) (*InstallResult, error) {
	x, err := f.Extract(ctx, homeID, src)
	if err != nil {
		return nil, fmt.Errorf("fleet: home %s: %w", homeID, err)
	}
	return f.InstallExtracted(ctx, x, cfg)
}

// Extraction is an install whose extract stage has run (Extract);
// InstallExtracted runs the rest. A caller that guards the two stages
// apart (internal/rpc's circuit breakers) calls them in turn, so the
// source is hashed and looked up in the extraction cache once. An
// Extraction never passed to InstallExtracted records nothing: its span
// is never ended, so it is not captured.
type Extraction struct {
	homeID, src string
	res         *symexec.Result
	start       time.Time
	sp          *obs.Span
}

// Extract runs the extract stage of installing src into homeID: it
// opens the install's span and extracts src through the shared cache.
// A failed extraction counts as a failed install and returns the
// extraction error unwrapped.
func (f *Fleet) Extract(ctx context.Context, homeID, src string) (Extraction, error) {
	x := f.beginInstall(ctx, homeID, src)
	esp := x.sp.Child("extract")
	src, res, err := f.cache.ExtractKeyed(src, "")
	esp.End()
	if err != nil {
		f.extractFailed(x, err)
		return Extraction{}, err
	}
	x.src, x.res = src, res
	return x, nil
}

func (f *Fleet) beginInstall(ctx context.Context, homeID, src string) Extraction {
	x := Extraction{homeID: homeID, src: src, start: time.Now(), sp: f.opSpan(ctx, "install")}
	x.sp.SetStr("home", homeID)
	return x
}

func (f *Fleet) extractFailed(x Extraction, err error) {
	x.sp.End()
	f.metrics.installFailed()
	f.events.Publish(events.Event{Type: events.TypeInstall, Home: x.homeID, Err: err.Error()})
}

// InstallExtracted finishes an install Extract began: detection against
// the home's apps, the threat log and the WAL record, as Install
// documents.
func (f *Fleet) InstallExtracted(ctx context.Context, x Extraction, cfg *detect.Config) (*InstallResult, error) {
	sp, homeID, res := x.sp, x.homeID, x.res
	defer sp.End()
	// Deadline check at the extract/detect boundary: an expired request
	// must not take the home lock and mutate the threat log for a caller
	// that has already given up.
	if err := ctx.Err(); err != nil {
		f.metrics.installFailed()
		return nil, fmt.Errorf("fleet: home %s: %w", homeID, err)
	}
	sp.SetStr("app", res.App.Name)
	// Encode the WAL record before taking the home lock — the payload is
	// a pure function of the request, and JSON marshaling does not belong
	// in the critical section.
	var opRec []byte
	if f.wal != nil {
		var err error
		if opRec, err = encodeConfigOp(walOp{Home: homeID, Source: x.src}, cfg); err != nil {
			f.metrics.installFailed()
			return nil, fmt.Errorf("fleet: home %s: wal encode: %w", homeID, err)
		}
	}
	h := f.homeFor(homeID)

	// The locked section runs in a closure so a detection panic (which
	// pairverdict.Cache deliberately re-raises after releasing its
	// waiters) unlocks the home on the way out: net/http recovers handler
	// panics, and a mutex left locked would wedge the home forever.
	var (
		threats []detect.Threat
		chains  []detect.Chain
		logBase int
		det     DetectorTotals
		dupErr  error
		gone    bool
		walErr  error
	)
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.migrated {
			gone = true
			return
		}
		logBase = h.logLen()
		if threats, dupErr = h.install(sp, x.src, res, cfg); dupErr != nil {
			return
		}
		csp := sp.Child("chains")
		chains = h.det.FindChains(threats, f.opts.MaxChainLen)
		csp.End()
		det = h.takeDetectorDelta()
		walErr = f.commit(sp, h, wal.OpFleetInstall, opRec)
	}()
	if gone {
		// The home was detached (migrated away) between lookup and lock:
		// the caller must re-route to the new owner.
		f.metrics.installFailed()
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	if dupErr != nil {
		// A retried/duplicated request, not a service failure: count it
		// apart from extraction errors so dashboards alerting on
		// InstallErrors don't fire on ordinary client retries.
		f.metrics.installConflicted()
		return nil, fmt.Errorf("fleet: home %s: %w", homeID, dupErr)
	}
	if walErr != nil {
		// Un-acknowledged: the caller must treat the install as failed.
		// The log has latched the error, so no later operation can be
		// acknowledged or checkpointed past this point either.
		f.metrics.installFailed()
		return nil, fmt.Errorf("fleet: home %s: wal append: %w", homeID, walErr)
	}

	rsp := sp.Child("report")
	report, lines := frontend.InstallDialog(res.App.Name, res.Rules.Rules, threats, chains)
	rsp.End()
	f.metrics.detectorDelta(det)
	f.metrics.installDone(time.Since(x.start), threats)
	f.publishOpEvents(events.TypeInstall, homeID, res.App.Name, threats, time.Since(x.start))
	return &InstallResult{
		HomeID:        homeID,
		App:           res.App,
		Rules:         res.Rules.Rules,
		Threats:       threats,
		ThreatLogBase: logBase,
		Chains:        chains,
		Report:        report,
		Lines:         lines,
		Warnings:      res.Warnings,
	}, nil
}

// publishOpEvents ships one operation event plus one event per reported
// threat to the fleet's event writer. Publish never blocks (and no-ops
// on a nil writer), so this costs the request path a bounded few ring
// writes after the home lock is released.
func (f *Fleet) publishOpEvents(typ, homeID, app string, threats []detect.Threat, d time.Duration) {
	if f.events == nil {
		return
	}
	f.events.Publish(events.Event{
		Type: typ, Home: homeID, App: app,
		Threats: len(threats), DurationMs: float64(d.Microseconds()) / 1000.0,
	})
	for _, t := range threats {
		f.events.Publish(events.Event{
			Type: events.TypeThreat, Home: homeID, App: app, Kind: string(t.Kind),
		})
	}
}

// BatchItem is one app of a batch install.
type BatchItem struct {
	Source string
	Config *detect.Config
}

// BatchResult is one batch item's outcome, in input order.
type BatchResult struct {
	Result *InstallResult
	Err    error
}

// InstallBatch installs several apps into one home. Extraction of every
// distinct source runs first, in parallel, through the fleet's shared
// extraction cache (bounded at GOMAXPROCS goroutines); the installs then
// run in input order under the home lock. Per-home detection stays serial
// — the detector's contract — but the dominant cold-start cost, symbolic
// execution of each app, uses every core, so provisioning a home with a
// catalog of N apps no longer pays N sequential extractions. Each install
// takes its item's prewarmed extraction, so a source is hashed and looked
// up once. An item that fails records its error and does not stop the
// rest.
//
// The whole batch is one span ("install_batch") with a "prewarm" child
// covering the parallel extraction phase and one "install" child per
// item.
func (f *Fleet) InstallBatch(ctx context.Context, homeID string, items []BatchItem) []BatchResult {
	sp := f.opSpan(ctx, "install_batch")
	defer sp.End()
	sp.SetStr("home", homeID)
	sp.SetInt("items", int64(len(items)))

	type extracted struct {
		src string
		res *symexec.Result
		err error
	}
	pre := make([]extracted, len(items))
	// One span covers the whole parallel phase: spans are single-owner,
	// so the warm goroutines never touch it.
	wsp := sp.Child("prewarm")
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *extracted, src string) {
			defer wg.Done()
			defer func() { <-sem }()
			p.src, p.res, p.err = f.cache.ExtractKeyed(src, "")
		}(&pre[i], items[i].Source)
	}
	wg.Wait()
	wsp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	out := make([]BatchResult, len(items))
	for i, p := range pre {
		x := f.beginInstall(ctx, homeID, items[i].Source)
		if p.err != nil {
			f.extractFailed(x, p.err)
			out[i].Err = fmt.Errorf("fleet: home %s: %w", homeID, p.err)
			continue
		}
		x.src, x.res = p.src, p.res
		out[i].Result, out[i].Err = f.InstallExtracted(ctx, x, items[i].Config)
	}
	return out
}

// ReconfigureResult is what a reconfigure returns to the frontend; it
// mirrors InstallResult (the bare (threats, logBase, err) triple it
// replaces made every new field a breaking change).
type ReconfigureResult struct {
	HomeID string
	// App is the reconfigured app's name.
	App string
	// Threats are the threats detected under the new configuration. The
	// slice may be the fleet's cached verdict for a pair, shared: read
	// only.
	Threats []detect.Threat
	// ThreatLogBase is the index of Threats[0] in the home's threat log
	// (AcceptByIndex addressing): Threats[i] is log entry ThreatLogBase+i.
	ThreatLogBase int
}

// Reconfigure updates an installed app's configuration in one home and
// re-runs detection. The result carries the threats under the new
// configuration plus their base index in the home's threat log. A nil
// cfg keeps the app's current configuration and just re-runs detection
// — it does NOT reset the bindings (pass detect.NewConfig() explicitly
// to clear them). Like Install it records per-stage spans from ctx
// (detect with the detector's children, splice) and aborts with
// ctx.Err() when the context has expired before detection starts.
func (f *Fleet) Reconfigure(ctx context.Context, homeID, appName string, cfg *detect.Config) (*ReconfigureResult, error) {
	start := time.Now()
	sp := f.opSpan(ctx, "reconfigure")
	defer sp.End()
	sp.SetStr("home", homeID)
	sp.SetStr("app", appName)

	h := f.lookup(homeID)
	if h == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: home %s: %w", homeID, err)
	}
	// Closure + defer for the same panic-safety reason as Install.
	var (
		threats []detect.Threat
		logBase int
		det     DetectorTotals
		missing bool
		gone    bool
		walErr  error
	)
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.migrated {
			gone = true
			return
		}
		target, _ := h.installed(appName)
		if target == nil {
			missing = true
			return
		}
		if cfg == nil {
			cfg = target.Config // keep bindings; detect.Reconfigure would reset them
		}
		// The WAL record carries the RESOLVED config — resolution above
		// depends on the app's current bindings, which replay must not
		// re-derive from whatever state the log has reached. Encoded
		// under the lock because the resolution is, and before the
		// mutation so an encode failure changes nothing.
		var opRec []byte
		if f.wal != nil {
			if opRec, walErr = encodeConfigOp(walOp{Home: homeID, App: appName}, cfg); walErr != nil {
				return
			}
		}
		logBase = h.logLen()
		// h.reconfigure errors only on an unknown app, and the app was
		// found above under the same lock, so the error is impossible
		// here; the missing flag above is what carries not-found out.
		threats, _ = h.reconfigure(sp, appName, cfg)
		det = h.takeDetectorDelta()
		walErr = f.commit(sp, h, wal.OpFleetReconfigure, opRec)
	}()
	if gone {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	if missing {
		return nil, fmt.Errorf("fleet: home %s: %w: %q", homeID, ErrAppNotInstalled, appName)
	}
	if walErr != nil {
		return nil, fmt.Errorf("fleet: home %s: wal append: %w", homeID, walErr)
	}
	f.metrics.detectorDelta(det)
	f.metrics.reconfigureDone()
	f.publishOpEvents(events.TypeReconfigure, homeID, appName, threats, time.Since(start))
	return &ReconfigureResult{
		HomeID:        homeID,
		App:           appName,
		Threats:       threats,
		ThreatLogBase: logBase,
	}, nil
}

// AcceptByIndex records user-approved threats, addressed by their index
// in the home's threat log (the order Threats returns), so later
// installs report chains through them. It is all-or-nothing: an index
// outside the log fails ErrBadThreatIndex and accepts nothing.
func (f *Fleet) AcceptByIndex(homeID string, indices ...int) error {
	h := f.lookup(homeID)
	if h == nil {
		return fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	var opRec []byte
	if f.wal != nil {
		var err error
		if opRec, err = json.Marshal(walOp{Home: homeID, Indices: indices}); err != nil {
			return fmt.Errorf("fleet: home %s: wal encode: %w", homeID, err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	if err := h.acceptByIndex(indices); err != nil {
		return fmt.Errorf("fleet: home %s: %w", homeID, err)
	}
	if err := f.commit(nil, h, wal.OpFleetAccept, opRec); err != nil {
		return fmt.Errorf("fleet: home %s: wal append: %w", homeID, err)
	}
	return nil
}

// Threats returns every threat ever reported for the home, in report
// order. The slice is a copy; the caller owns it.
func (f *Fleet) Threats(homeID string) ([]detect.Threat, error) {
	h := f.lookup(homeID)
	if h == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	out := make([]detect.Threat, 0, h.logLen())
	for _, r := range h.log {
		out = append(out, r.ts...)
	}
	return out, nil
}

// ActiveThreats returns the home's CURRENT threat set from the
// incremental ledger: the latest verdict for every app pair, with
// reconfigure-resolved threats gone and retained pairs untouched —
// unlike Threats, which is the append-only report history. Threats are
// grouped by app pair in first-report order. The slice is a copy; the
// caller owns it.
func (f *Fleet) ActiveThreats(homeID string) ([]detect.Threat, error) {
	h := f.lookup(homeID)
	if h == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	var out []detect.Threat
	for _, k := range h.ledger {
		out = append(out, h.log[k].ts...)
	}
	return out, nil
}

// Apps returns the names of the apps installed in the home, in
// installation order.
func (f *Fleet) Apps(homeID string) ([]string, error) {
	h := f.lookup(homeID)
	if h == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.migrated {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownHome, homeID)
	}
	var names []string
	for _, a := range h.det.Apps() {
		names = append(names, a.Info.Name)
	}
	return names, nil
}

// HomeIDs returns the IDs of every home in the fleet, sorted.
func (f *Fleet) HomeIDs() []string {
	var ids []string
	for _, s := range f.shards {
		s.mu.RLock()
		for id := range s.homes {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// NumHomes returns the number of homes in the fleet.
func (f *Fleet) NumHomes() int {
	n := 0
	for _, s := range f.shards {
		s.mu.RLock()
		n += len(s.homes)
		s.mu.RUnlock()
	}
	return n
}

// Cache exposes the shared extraction cache (for stats and pre-warming).
func (f *Fleet) Cache() *extractcache.Cache { return f.cache }

// Verdicts exposes the shared pair-verdict cache, or nil when the fleet
// was created with DisablePairVerdicts.
func (f *Fleet) Verdicts() *pairverdict.Cache { return f.verdicts }

// Observer exposes the observability bundle the fleet was created with,
// or nil.
func (f *Fleet) Observer() *obs.Observer { return f.obs }

// Metrics returns a snapshot of fleet-wide service metrics.
func (f *Fleet) Metrics() MetricsSnapshot {
	var pv pairverdict.Stats
	if f.verdicts != nil {
		pv = f.verdicts.Stats()
	}
	return f.metrics.snapshot(f.cache.Stats(), pv)
}
