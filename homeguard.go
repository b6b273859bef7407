// Package homeguard is a reproduction of "Cross-App Interference Threats
// in Smart Homes: Categorization, Detection and Handling" (Chi, Zeng, Du,
// Yu — DSN 2020): a system that extracts trigger–condition–action rules
// from SmartThings SmartApps via symbolic execution and detects Cross-App
// Interference (CAI) threats — Actuator Races, Goal Conflicts, Covert
// Triggering, Self Disabling, Loop Triggering, and Enabling/Disabling-
// Condition interference — before a new app is installed.
//
// The typical workflow mirrors HomeGuard's deployment:
//
//	home := homeguard.NewHome(homeguard.Options{})
//	res, err := home.InstallApp(srcA, cfgA) // extraction + detection
//	fmt.Println(res.Report)                 // human-readable dialog
//	home.Accept(res.Threats...)             // the user keeps the app
//
// # Deployment at scale
//
// A production deployment serves install-time detection for a whole
// population of homes from one service. The Fleet type is the entry
// point: a sharded, goroutine-safe manager of many homes in which
// per-home operations serialize (the detector's requirement) while
// distinct homes proceed in parallel across cores:
//
//	f := homeguard.NewFleet(homeguard.FleetOptions{})
//	res, err := f.Install(ctx, "home-42", src, nil) // safe from any goroutine
//	ts, err  := f.Threats("home-42")
//	m := f.Metrics()                                // installs, latency, cache
//
// The Fleet API is context-first: every mutating entry point (Install,
// InstallBatch, Reconfigure) takes a context.Context as its first
// argument and honors cancellation and deadlines between per-home
// operations. Reconfigure
// returns a *FleetReconfigureResult carrying the re-detected threats
// together with their position in the home's append-only threat log
// (ThreatLogBase) — previously a bare (threats, logBase, err) triple.
//
// All homes share one content-addressed extraction cache keyed by the
// SHA-256 of the app source, with singleflight deduplication: an app
// store SmartApp installed into a million homes is symbolically executed
// exactly once per daemon process, and concurrent cold-start installs of
// the same app coalesce onto a single extraction.
//
// Detection solving is deduplicated the same way by a fleet-shared
// pair-verdict cache. Every app pair's verdict (the full set of CAI
// threats between the two rule sets) is content-addressed by the SHA-256
// of both apps' canonical rule sets, their configuration bindings and the
// home's mode list — everything pair detection reads — so two homes that
// installed the same two apps with the same configurations provably share
// the verdict, and the constraint solver runs once per distinct pair for
// the whole fleet. Concurrent misses on one key coalesce singleflight:
// the first home computes under its own home lock while joining homes
// wait holding only their own locks, which cannot deadlock because the
// computation never touches another home's lock. Cached verdicts are
// immutable and shared without copying. In front of the cache, a
// per-app read/write footprint index prunes pairs with no interference
// channel at all (no shared device attribute, mode or environment
// property that either side writes) before any hashing or solving
// happens.
//
// Fleet metrics expose install counts, extraction and pair-verdict cache
// hit rates, footprint-prune and solver-call counters, p50/p99 install
// latency and per-kind threat counts for dashboards.
//
// cmd/homeguardd wraps a Fleet in an HTTP/JSON daemon (POST
// /homes/{id}/install, POST /homes/{id}/install-batch, POST
// /homes/{id}/reconfigure, GET /homes/{id}/threats, GET /metrics); see
// its package documentation for the wire format. For production
// profiling the daemon can expose Go's net/http/pprof endpoints on a
// separate, localhost-bound listener via -pprof-addr (disabled by
// default).
//
// Alongside HTTP the daemon serves a gRPC-modeled RPC edge
// (-rpc-addr, internal/rpc): Install, InstallBatch, Reconfigure,
// Threats, Accept, Apps and the SubmitApps/Findings store methods as
// unary calls — one install request, one verdict — multiplexed over one
// connection with per-RPC deadlines propagated from the client's
// context; InstallBatch covers in-order installs into one home. Both transports are thin shells over one shared service
// core, driven by one method table (internal/rpc's Methods) that the
// HTTP routes, the RPC dispatch, the client stubs and the gateway all
// read, and one raw entry point (rpc.Handler) into which every edge
// hands the method, the home key, the request body and a response
// buffer of its own. The node
// decodes there with one request-body decoder, so payloads and error
// semantics are identical (a parity test pins this): every failure is
// one typed envelope — a machine-readable code plus message — mapped
// to the matching HTTP status on the JSON edge and the matching gRPC
// status code on the RPC edge, with
// RESOURCE_EXHAUSTED/UNAVAILABLE responses carrying a retryAfterMs
// hint. Each RPC frame carries its JSON body verbatim beside a small
// JSON header, so a body is encoded once by its sender and parsed once
// by the node, with a gateway in between reading only its routing key;
// an HTTP response body is that same compact JSON plus a newline; a
// response too large for the 4 MiB frame cap comes back as
// RESOURCE_EXHAUSTED. The per-request cost around that is kept small:
// each edge takes its response buffer from one pool and gives it back
// once the response is written, the node appends the response's
// encoding straight into it and a gateway appends the owner's body, so
// no body is copied into a slice of its own; an install dialog or a
// threat read renders all of its texts into one string (the rule,
// threat and chain texts and the threats' rule IDs are substrings of
// it); the frame headers are appended and scanned without reflection
// (unusual headers fall back to encoding/json), the gateway's routing
// key is scanned out of the body without decoding the app source, and
// RPC handlers and pipeline-stage ops run on reused goroutines whose
// stacks are already grown, so no install regrows a stack; idle
// workers exit after ten seconds (homeguard_go_goroutines counts them). The connection preface names the frame layout
// (HGRPC/2), and a server refuses a client speaking any other, so a
// gateway and its nodes must run the same protocol version.
//
// The edge degrades by pipeline stage, not as a whole: extraction and
// detection sit behind independent circuit breakers (consecutive
// internal failures or deadline expiries open a breaker; after a
// cooldown a single half-open probe decides whether to close it).
// With extraction tripped — say the symbolic executor is panicking on
// a poisoned store app — installs shed fast with UNAVAILABLE while
// reconfigures, which never extract, keep serving; client-caused
// errors (unknown app, bad config) never trip anything. Breaker state
// is a gauge in /metrics.
//
// Operational visibility rides an asynchronous event pipeline
// (internal/events, FleetOptions.Events): each completed install and
// reconfigure publishes one operation event plus one event per
// reported threat into a bounded in-memory ring drained by a single
// writer goroutine to a pluggable sink (-events-sink: stdout JSON
// lines or a file). Publishing never blocks the request path — when
// the sink wedges, the ring drops the OLDEST events and counts them
// (homeguard_events_dropped_total) — so a dead disk or slow collector
// costs events, never installs.
//
// Beyond per-home serving, the daemon continuously audits an app STORE
// the way the paper's Fig. 8 batch job did once: an incremental store
// auditor (internal/audit's Auditor) holds the store's footprint-channel
// index, compiled rule sets and every pair's current verdict across
// revisions. POST /store/apps (RPC SubmitApps) applies one batch of
// submits/updates/removes and re-checks only the pairs whose footprints
// intersect a changed app; each batch yields a monotonically versioned
// revision whose findings delta — threats added and resolved per app
// pair, in serial install order — is published on the event pipeline
// (revision and finding events) and served as a feed: GET
// /store/findings?since=<rev> (RPC Findings) replays the deltas a client
// missed, or answers with a reset snapshot of the full active set when
// the asked-for revision has aged out of the bounded per-revision
// history. Feed consumers therefore reconstruct the exact active finding
// set by replaying deltas, and a client that falls too far behind is
// told to resynchronize rather than silently fed a gap. The same engine
// runs daemonless as `homeguard audit -watch <dir>`, turning file
// adds/edits/deletes into store batches.
//
// The edge's service level is measured, not asserted: cmd/homeguardload
// drives a live daemon's RPC listener with a configurable install-storm
// mix (weighted install/reconfigure/threats operations, per-worker home
// rotation through the corpus so both the extraction-cold and
// cache-warm paths are exercised) and reports per-operation latency
// quantiles. The measured install p99 is published in BENCH_pr7.json
// and enforced by a CI storm whose gate sits an order of magnitude
// above the measurement, so runner jitter cannot flake it while a
// serialization bug still trips it.
//
// # Performance architecture
//
// The detection pipeline is organized so that all repeatable work happens
// once, and the remaining per-pair work runs on precompiled artifacts:
//
//   - Interned, compile-once apps. An installed app is one immutable
//     value per extraction result and configuration content, shared by
//     every home that installs it (detect.NewInstalledApp's intern table,
//     the same discipline as the extraction cache). It is compiled once,
//     when it is built, into a CompiledRuleSet: canonical formulas
//     (variables renamed to home-global form, configured values
//     substituted), solver variable declaration plans, action effects
//     with pre-rendered constraints, trigger metadata, the footprint
//     channels and the verdict signature. A pair check therefore does no
//     canonicalization at all — before this layer it re-canonicalized
//     both rules' formulas for every one of the O(rules²) pairs.
//
//   - An interned, slice-backed solver core. The finite-domain solver
//     interns variable names to dense indices at declaration; domains,
//     pending binary atoms and the difference-constraint graph are flat
//     slices indexed by variable id, propagation-state clones come from a
//     sync.Pool and are recycled on backtracking, and no-op domain
//     narrowings return their receiver without allocating. A
//     constant-folding pre-pass collapses comparisons between constants
//     (common after configuration substitution) so trivially-UNSAT
//     queries never enter the search.
//
//   - Layered caches from the coarsest grain down: the extraction cache
//     (one symbolic execution per distinct app source fleet-wide, bounded
//     with eviction so source churn cannot grow it without limit), the
//     pair-verdict cache (one solved verdict per distinct app pair,
//     content-addressed by the compiled signatures), the footprint prune
//     (disjoint pairs skipped before any hashing or solving), and the
//     per-home satCache (solving-result reuse across threat kinds within
//     a pair, the paper's Fig. 9 green arrows). A cache hit at any layer
//     short-circuits everything below it; the compiled representation is
//     what makes the remaining misses cheap.
//
//   - An allocation-lean extraction cold path. The cache-miss cost of the
//     layers above is a full parse plus symbolic execution, so both were
//     rebuilt around reuse: the Groovy front end lexes byte-driven tokens
//     that are substrings of the source (token buffers and parser shells
//     recycle through pools), parser nodes come from per-type arenas and
//     child slices from shared slabs; the symbolic executor forks paths
//     with copy-on-write scope chains (a fork freezes the chain and a
//     path copies only the frames it writes), shares constraint slices
//     between fork siblings until either appends, merges indistinguishable
//     forked states (preserving their multiplicity for path counts and
//     rule emission), and interns the canonical variable names it shares
//     with the detect compile step. One extraction now costs a few dozen
//     allocations instead of a few hundred.
//
//   - Sublinear candidate generation: an inverted footprint-channel
//     index. Every canonical name an app's rules read or write is a
//     channel; the detector keeps channel → posting-list-of-apps (each
//     posting tagged with the app's read/write membership for that
//     channel), and Install/Reconfigure query the
//     postings of the new footprint's channels for candidate
//     counterparts instead of enumerating every installed app. The
//     candidate set equals exactly the set the per-pair footprint prune
//     would have kept (a pinned property test compares against the
//     brute-force all-pairs filter), so findings are byte-identical —
//     but pairs with no shared channel are never generated at all, making
//     candidate generation proportional to actual channel overlap rather
//     than home or store size. Stats.PairsIndexed/PairsSkippedByIndex
//     (surfaced in /metrics) report the effect.
//
//   - One store auditor for the paper's Sec. VIII-B store audit and for
//     store churn (internal/audit). A full audit is one Apply of the
//     whole store on a fresh audit.Auditor. Its pair tasks come from the
//     same posting lists as Install, so the sparse synthetic store audit
//     generates candidates in near-linear time instead of walking the
//     quadratic pair grid (BENCH_pr5.json: 2.3x at 1k apps, 3.4x at 2k).
//     The tasks fan out over a work-stealing worker pool, one detector
//     per worker, with apps compiled once and shared read-only. A cold
//     Apply reports the threats and detector counters of the serial
//     install sequence, in its order, at any worker count; Fig. 8,
//     `homeguard audit` and examples/storeaudit all run it. A long-lived
//     Auditor keeps the index, the compiled apps and all pair verdicts
//     across batches, so a store that churns a few apps re-extracts only
//     those apps and re-solves only the pairs whose footprints intersect
//     them (posting-list candidates; pairs that stopped sharing any
//     channel resolve by the footprint prune without solving, and
//     untouched pairs keep their verdicts). A 1% churn batch on the
//     2k-app sparse corpus costs a small fraction of a full re-audit
//     (BenchmarkIncrementalAudit in BENCH_pr8.json), while a churn
//     property test pins the active findings byte-identical to a serial
//     from-scratch audit at every revision. Fleet.InstallBatch uses the
//     same parallel-extraction idea at provisioning time: a batch's
//     extractions run in parallel through the shared cache before the
//     installs serialize on the home.
//
//   - An incremental per-home threat ledger. Each fleet home retains its
//     current threat set grouped by app pair; Reconfigure re-solves only
//     the pairs whose footprint intersects the changed app (the index's
//     candidates, with its postings updated to the new bindings first)
//     and splices the result into the retained ledger — replaced where
//     re-detected, dropped where resolved, untouched elsewhere — rather
//     than recomputing the home. Fleet.ActiveThreats (GET
//     /homes/{id}/threats?active=true) serves that live view, while
//     Threats remains the append-only history.
//
//   - Persistent warm starts. homeguardd's checkpoint (internal/snapcodec;
//     see Durability) persists each installed app once, as its source in
//     the homes section's app table, and a restore extracts it again
//     into the extraction cache. The pair-verdict cache has no section:
//     restoring the homes replays their installs, which solves each app
//     pair they hold once and refills it, in less time than decoding a
//     stored verdict section took. A daemon restarted on its -wal-dir
//     therefore serves a repeat install storm of its catalog with a
//     ≥0.99 extraction-cache hit ratio and no pair verdict solved twice.
//     Version skew and corruption are rejected with typed errors, never
//     loaded as garbage.
//
// # Durability
//
// homeguardd persists through one path, the write-ahead log
// (internal/wal) plus checkpoints, which survives a crash. A fleet or
// store auditor given a wal.Log (Fleet.AttachWAL, Auditor.AttachWAL)
// appends one logical operation record — install, reconfigure, threat
// accept, store audit batch — to a segmented, CRC32C-framed,
// monotonically LSN-numbered log BEFORE acknowledging the operation,
// under the same lock that applied the mutation, so the log's record
// order IS the commit order. Two fsync policies trade latency for
// loss window: always (fsync before every ack — zero acked loss, the
// configuration the fault-injection tests run under; concurrent
// appenders share fsyncs through group commit) and off (OS page
// cache). A failed append or fsync latches the log into a crash-stop
// state that refuses further appends rather than acking writes the
// disk never saw.
//
// Records are logical and self-contained: an install record carries the
// app's Groovy source and its resolved configuration, so recovery never
// re-runs config resolution. Replay runs each record through the same
// home mutation the live operation ran (one definition of install,
// reconfigure, accept and adopt), without its report, chains or events;
// it installs the source again through the content-addressed extraction
// cache, which answers from a restored home's app table when it can and
// re-runs symbolic execution only when the cache is cold. Replay is
// idempotent through per-entity LSN watermarks (each home and the
// auditor persist the LSN of their last applied record in the
// checkpoint; replay skips records at or below the watermark), so a
// checkpoint plus an overlapping log tail applies exactly once. On open,
// a torn final record — the crash landed mid-write — is truncated away;
// corruption anywhere earlier refuses the log with a typed error instead
// of replaying garbage. A crash-point property test walks EVERY torn
// prefix of a multi-segment log and requires the recovered state to
// equal an exact prefix of the acked operation sequence, and a
// daemon-level test SIGKILLs a live homeguardd mid install storm and
// requires zero acked installs lost; both run in CI.
//
// A background checkpointer (homeguardd -checkpoint-interval) bounds
// replay time and log growth: it captures the log position, writes the
// full state — every home as its op history (the installs, reconfigures
// and accepts that built it, which restore replays through the same home
// mutations to derive the threat log, ledger and accepted threats again)
// beside its apps' extractions, the store auditor with its revision
// history — to a temp file, atomically
// renames it into place (parent directory fsynced so the rename itself
// is durable), then garbage-collects the segments the checkpoint covers.
// A restarted store daemon therefore resumes at its last revision and
// serves FindingsSince deltas across the restart instead of resetting
// its feed. The recovery path is gated: homeguardd brings its listener
// up first, answers 503 on every API route while the checkpoint loads
// and the tail replays (health probes stay live so orchestrators see an
// honest readiness flip), and marks ready only when recovery completes.
//
// # Cluster deployment
//
// One daemon scales to many cores; a fleet of daemons scales past one
// machine. cmd/homeguardgw is the cluster gateway: it serves the exact
// HTTP and RPC edges the daemon does, from the same method table, and
// routes each request to one of several homeguardd nodes
// (internal/cluster) by consistent hashing — every home ID maps onto a
// ring of virtual nodes built deterministically from the sorted
// membership, so identically configured gateway replicas agree on
// placement with zero coordination, and the ring version (a digest of
// membership) is exported as a gauge to catch config skew between
// replicas. Store endpoints hash as a single ring key, keeping the
// auditor's revision feed on one node.
//
// The gateway forwards bytes. Its routing key is the path's {id} on
// HTTP and, on RPC, a key-only read of the body's "home"
// (Method.KeyOf). The request body goes to the node verbatim with that
// key in the REQ header, which the node binds as the home, so the key
// routed by is the key executed; the node's response body comes back
// verbatim. The gateway decodes no request or response body.
//
// Health is measured, not assumed: the gateway pings every node each
// heartbeat interval (the daemon's -node-id answers the Ping, and an
// address answering with the WRONG identity is treated as down rather
// than trusted), declares a node dead after K consecutive misses and
// live again after one successful probe. Requests to a dead node's
// homes fail over to the next live owner clockwise on the ring — the
// ring itself never rebuilds, so placement snaps back when the node
// recovers. Per-node circuit breakers shed calls to flapping nodes
// with UNAVAILABLE + retryAfterMs, and the gateway's retry layer
// (jittered exponential backoff honoring the server hint, bounded by
// attempts and a per-request time budget) retries only idempotent-safe
// failures: UNAVAILABLE always, DEADLINE_EXCEEDED only for reads — a
// timed-out write may have applied.
//
// Failover does not lose acknowledged work: the gateway journals the
// request body of every mutating operation it has acked, per home,
// with the key it routed by, and replays those bodies verbatim onto a
// home's new owner — tolerating ALREADY_EXISTS for records the target
// already holds from its own WAL — before serving the home there, both
// eagerly on a health transition and lazily on first touch. Only an
// acked mutating operation leaves gateway state: reads and failed
// writes of a home with no journal create none, and MigrateHome drops
// the journal. Replay cost is bounded by the fleet's content-addressed
// extraction and pair-verdict caches: the survivor re-solves nothing
// it has seen before. A chaos test (and CI job) kill -9s one node of a
// two-node fleet mid install storm and requires every gateway-acked
// operation to remain served. The journal is in-memory and lives for
// the gateway process; checkpoint-aware truncation (dropping ops a
// node's own durable WAL provably covers) is future work.
//
// Planned moves use the same machinery end to end: POST /admin/migrate
// (or the MigrateHome/AdoptHome RPCs) drains the home on its current
// owner via fleet.ExportHome — a single-home snapcodec section — adopts
// it on the target via fleet.ImportHome, pins routing to the target,
// and rewrites the home's journal to the one adopt operation, so a
// later failover rebuilds the migrated state from the snapshot instead
// of the pre-migration op history. A failed adopt rolls the home back
// onto its source. GET /cluster reports ring version, per-node
// health/breaker state and pins.
//
// # Observability
//
// The Observer type (FleetOptions.Obs) bundles the process-wide
// observability state — a metrics registry, a span tracer and a
// slow-request capture — and threads it through the whole pipeline with
// zero third-party dependencies. A fleet given an Observer registers a
// metrics collector on its registry; homeguardd creates one per process
// and serves it.
//
// Metrics. Registry.WritePrometheus emits Prometheus text exposition
// (format 0.0.4) alongside the JSON snapshot /metrics always served.
// The stable catalog, all prefixed homeguard_:
//
//	homes (gauge)                                  homes managed
//	installs_total, install_errors_total,
//	install_conflicts_total, reconfigures_total    operation counters
//	threats_total{kind=...}                        threats per Table I kind
//	install_duration_seconds (histogram)           install latency
//	extract_cache_{lookups,hits,misses,evictions}_total, extract_cache_entries
//	verdict_cache_{lookups,hits,misses}_total, verdict_cache_entries
//	detect_pairs_{checked,pruned,indexed,skipped_by_index}_total
//	detect_verdict_{hits,misses}_total
//	solver_calls_total, solver_cache_hits_total, solver_limit_hits_total
//	audit_revisions_total, audit_pairs_rechecked_total,
//	audit_pairs_checked_total, audit_solver_calls_total,
//	audit_findings_{added,resolved}_total          store auditor
//	audit_store_apps, audit_findings_active        store size + live findings (gauges)
//	rpc_requests_total{method,code}                RPC calls by outcome
//	rpc_latency_seconds (histogram)                RPC edge latency
//	rpc_breaker_open{stage}                        0 closed, 0.5 half-open, 1 open
//	events_{published,dropped,written,sink_errors}_total, events_buffered
//	wal_appends_total, wal_fsyncs_total, wal_bytes_total,
//	wal_segments_removed_total                     write-ahead log activity
//	wal_segments, wal_last_lsn                     log shape (gauges)
//	wal_recovery_seconds                           last boot recovery duration
//	cluster_ring_version                           membership digest (gauge; differs across
//	                                               gateways iff their -nodes configs differ)
//	cluster_nodes_total, cluster_nodes_up          fleet size and live members (gauges)
//	cluster_node_up{node}                          per-node heartbeat verdict (gauge)
//	cluster_node_breaker_open{node}                per-node breaker (0/0.5/1 gauge)
//	cluster_failovers_total, cluster_recoveries_total
//	                                               node down/up transitions
//	cluster_retries_total                          routed calls retried
//	cluster_resyncs_total, cluster_resync_ops_total
//	                                               journal replays onto a new owner
//	cluster_migrations_total                       planned home migrations
//	cluster_journal_homes                          homes journaled on this gateway (gauge)
//	go_goroutines (gauge)                          goroutines, the RPC edge's parked workers included
//	go_gc_cpu_seconds_total                        CPU time in garbage collection (runtime/metrics)
//
// Tracing. With the tracer enabled, each fleet operation records a span
// tree of per-stage timings. Root spans are install, reconfigure and
// install_batch (whose per-item installs nest under it after a prewarm
// stage); pipeline stages are extract (cache or symbolic execution),
// detect (the per-home detector, containing compile — per-app rule
// compilation — candidates — footprint-index candidate generation —
// verdict — pair-verdict cache disposition, attr cache=hit|miss — and
// solve — constraint solving for one pair), then chains, ledger or
// splice, and report. The store auditor (internal/audit) records an
// audit.apply root per applied batch with extract (extraction and
// compilation), candidates, pairs and delta children (attrs
// rev/tasks/added/resolved). With a WAL attached, each mutating
// operation gains a wal.append child covering the pre-ack log write,
// and boot recovery records a wal.recover root (attr records). RPC-edge
// calls add an rpc.<Method> root span (method and status-code
// attributes) above the fleet operation's tree. Disabled tracing
// is free: every span call is a nil-receiver no-op and the hot detection
// path stays allocation-free (pinned by benchmark gates in CI).
//
// Capture. Root spans that end while tracing is on enter a bounded
// capture — the 32 slowest and 32 most recent trees, rendered to JSON at
// insertion — served by homeguardd at GET /debug/requests. Spans slower
// than the tracer's threshold (-trace-slow-ms) are additionally logged
// as structured slog records (WARN, attrs span/duration/trace).
//
// Lower-level building blocks (the Groovy parser, the symbolic executor,
// the constraint solver, the platform simulator and the app corpus) live
// under internal/.
package homeguard

import (
	"fmt"
	"io"

	"homeguard/internal/audit"
	"homeguard/internal/detect"
	"homeguard/internal/envmodel"
	"homeguard/internal/events"
	"homeguard/internal/extractcache"
	"homeguard/internal/fleet"
	"homeguard/internal/frontend"
	"homeguard/internal/instrument"
	"homeguard/internal/nlp"
	"homeguard/internal/obs"
	"homeguard/internal/pairverdict"
	"homeguard/internal/rule"
	"homeguard/internal/symexec"
)

// Re-exported types so callers need only this package for the main
// workflow.
type (
	// Rule is an extracted trigger–condition–action automation rule.
	Rule = rule.Rule
	// Threat is one detected cross-app interference.
	Threat = detect.Threat
	// ThreatKind is a Table I category (AR, GC, CT, SD, LT, EC, DC).
	ThreatKind = detect.Kind
	// Config carries installation-time device bindings and values.
	Config = detect.Config
	// AppInfo is app metadata (name, description, inputs).
	AppInfo = symexec.AppInfo
	// ExtractionResult is the output of rule extraction.
	ExtractionResult = symexec.Result
	// DeviceType classifies a device's physical role.
	DeviceType = envmodel.DeviceType
	// Fleet is a sharded, goroutine-safe manager of many homes sharing
	// one extraction cache (see "Deployment at scale" above).
	Fleet = fleet.Fleet
	// FleetOptions tune a Fleet (shard count, detector options, cache).
	FleetOptions = fleet.Options
	// FleetInstallResult is what Fleet.Install returns.
	FleetInstallResult = fleet.InstallResult
	// FleetMetrics is a snapshot of fleet-wide service metrics.
	FleetMetrics = fleet.MetricsSnapshot
	// ExtractionCache is a content-addressed, singleflight-deduplicated
	// cache of extraction results, shareable between fleets and tools.
	ExtractionCache = extractcache.Cache
	// PairVerdictCache is a content-addressed, singleflight-deduplicated
	// cache of app-pair detection verdicts, shareable between fleets (see
	// "Deployment at scale" above).
	PairVerdictCache = pairverdict.Cache
	// FleetDetectorTotals aggregates per-home detector counters
	// fleet-wide (pairs checked/pruned, solver calls, verdict hits).
	FleetDetectorTotals = fleet.DetectorTotals
	// FleetBatchItem is one app of a Fleet.InstallBatch call.
	FleetBatchItem = fleet.BatchItem
	// FleetBatchResult is one batch item's outcome.
	FleetBatchResult = fleet.BatchResult
	// FleetReconfigureResult is what Fleet.Reconfigure returns: the
	// re-detected threats plus their base index in the home's
	// append-only threat log.
	FleetReconfigureResult = fleet.ReconfigureResult
	// Event is one fire-and-forget operational event (install,
	// reconfigure, threat, audit) published by a fleet with
	// FleetOptions.Events set.
	Event = events.Event
	// EventWriter is the bounded, drop-oldest asynchronous event
	// pipeline; create one with NewEventWriter.
	EventWriter = events.Writer
	// Observer bundles the process-wide observability state — metrics
	// registry, span tracer and slow-request capture (see
	// "Observability" above). Pass one via FleetOptions.Obs.
	Observer = obs.Observer
	// ObsRegistry is the Prometheus-exposition metrics registry.
	ObsRegistry = obs.Registry
	// SpanCapture is the bounded slowest+recent span-tree capture.
	SpanCapture = obs.Capture
	// StoreAuditor is the long-lived incremental store auditor: it keeps
	// the store's footprint index, compiled apps and pair verdicts across
	// revisions so each applied batch re-checks only the pairs a changed
	// app's footprint intersects (see "Performance architecture" above).
	StoreAuditor = audit.Auditor
	// StoreAuditorOptions tune a StoreAuditor (workers, shared extraction
	// cache, revision history bound, observability, events).
	StoreAuditorOptions = audit.AuditorOptions
	// StoreBatch is one store mutation set: app submits/updates plus
	// removes, applied as one revision.
	StoreBatch = audit.Batch
	// StoreRevision is the outcome of one applied batch: the new revision
	// number and its added/resolved findings delta.
	StoreRevision = audit.Revision
	// StoreFinding is one active threat attributed to its app pair.
	StoreFinding = audit.Finding
	// StoreFeed is a findings-feed response: the delta since a revision,
	// or a reset snapshot when that revision aged out of history.
	StoreFeed = audit.Feed
)

// NewFleet creates an empty fleet of homes. The zero FleetOptions value
// selects 16 shards, default detector options and a fresh cache.
func NewFleet(opts FleetOptions) *Fleet { return fleet.New(opts) }

// NewStoreAuditor returns an empty incremental store auditor. Share the
// fleet's extraction cache (StoreAuditorOptions.Extract) so store
// submissions and home installs extract each distinct source once.
func NewStoreAuditor(opts StoreAuditorOptions) *StoreAuditor { return audit.NewAuditor(opts) }

// NewObserver returns an observability bundle with a fresh registry, a
// disabled tracer (span calls are no-ops until Tracer.SetEnabled(true))
// and a default-sized slow-request capture.
func NewObserver() *Observer { return obs.NewObserver() }

// NewEventWriter returns an asynchronous event pipeline draining to
// sink: a bounded in-memory ring plus one writer goroutine. Publish
// never blocks — under backpressure the oldest buffered events are
// dropped and counted. Pass it via FleetOptions.Events; Close flushes
// what the ring still holds and closes the sink.
func NewEventWriter(sink events.Sink, opts events.Options) *EventWriter {
	return events.NewWriter(sink, opts)
}

// NewJSONEventSink returns an event sink writing one JSON object per
// line to w (os.Stdout for the classic operational log).
func NewJSONEventSink(w io.Writer) events.Sink { return events.NewJSONSink(w) }

// NewExtractionCache returns an empty, unbounded extraction cache backed
// by the symbolic executor, for sharing across fleets or batch tools.
func NewExtractionCache() *ExtractionCache { return extractcache.New() }

// NewBoundedExtractionCache returns an extraction cache holding at most
// limit results, evicting arbitrary completed entries on overflow. Use it
// for long-running services fed unvetted sources; fleets created without
// an explicit cache default to this bound (fleet.DefaultExtractEntries),
// and evictions are surfaced in cache stats and the daemon's /metrics.
func NewBoundedExtractionCache(limit int) *ExtractionCache {
	return extractcache.NewBounded(limit)
}

// NewPairVerdictCache returns an empty, unbounded pair-verdict cache,
// for sharing detection verdicts across fleets (FleetOptions.Verdicts).
func NewPairVerdictCache() *PairVerdictCache { return pairverdict.New() }

// NewBoundedPairVerdictCache returns a pair-verdict cache holding at most
// limit verdicts, evicting arbitrary completed entries on overflow. Use
// it for long-running services: reconfigures re-key an app's pairs, so an
// unbounded shared cache grows with config churn. Fleets created without
// an explicit cache default to this bound (fleet.DefaultVerdictEntries).
func NewBoundedPairVerdictCache(limit int) *PairVerdictCache {
	return pairverdict.NewBounded(limit)
}

// Threat kinds (Table I).
const (
	ActuatorRace      = detect.ActuatorRace
	GoalConflict      = detect.GoalConflict
	CovertTriggering  = detect.CovertTriggering
	SelfDisabling     = detect.SelfDisabling
	LoopTriggering    = detect.LoopTriggering
	EnablingCondition = detect.EnablingCondition
	DisablingCond     = detect.DisablingCond
)

// ExtractRules symbolically executes a SmartApp source and returns its
// rules, input declarations and metadata.
func ExtractRules(src string) (*ExtractionResult, error) {
	return symexec.Extract(src, "")
}

// NewConfig returns an empty installation configuration.
func NewConfig() *Config { return detect.NewConfig() }

// ErrAppNotInstalled reports a reconfigure of an app that is not
// installed in the home, matchable with errors.Is.
var ErrAppNotInstalled = detect.ErrAppNotInstalled

// Options tune a Home's detector.
type Options struct {
	// Modes is the home's mode universe (default Home/Away/Night).
	Modes []string
	// DisableFiltering, DisableReuse and DisablePruning are ablation
	// switches; leave false in production.
	DisableFiltering bool
	DisableReuse     bool
	DisablePruning   bool
}

// Home is one smart home protected by HomeGuard.
type Home struct {
	det *detect.Detector
}

// NewHome creates a home with an empty app set.
func NewHome(opts Options) *Home {
	return &Home{det: detect.New(detect.Options{
		Modes:            opts.Modes,
		DisableFiltering: opts.DisableFiltering,
		DisableReuse:     opts.DisableReuse,
		DisablePruning:   opts.DisablePruning,
	})}
}

// InstallResult is what the HomeGuard frontend shows the user at app
// installation.
type InstallResult struct {
	App     AppInfo
	Rules   []*Rule
	Threats []Threat
	// Chains are multi-hop interference chains through previously accepted
	// threats (Sec. VI-D).
	Chains []detect.Chain
	// Report is the rendered installation dialog.
	Report string
	// Warnings are extraction diagnostics.
	Warnings []string
}

// InstallApp extracts the app's rules and detects CAI threats against all
// previously installed apps. cfg may be nil (type-level device identity).
func (h *Home) InstallApp(src string, cfg *Config) (*InstallResult, error) {
	res, err := symexec.Extract(src, "")
	if err != nil {
		return nil, fmt.Errorf("homeguard: %w", err)
	}
	ia := detect.NewInstalledApp(res, cfg)
	threats := h.det.Install(ia)
	chains := h.det.FindChains(threats, 4)
	report, _ := frontend.InstallDialog(res.App.Name, res.Rules.Rules, threats, chains)
	return &InstallResult{
		App:      res.App,
		Rules:    res.Rules.Rules,
		Threats:  threats,
		Chains:   chains,
		Report:   report,
		Warnings: res.Warnings,
	}, nil
}

// Accept records user-approved threats so later installs report chains
// through them.
func (h *Home) Accept(ts ...Threat) {
	for _, t := range ts {
		h.det.Accept(t)
	}
}

// ReconfigureApp updates an installed app's configuration and re-runs
// detection (the updated() lifecycle path): changing a device binding can
// resolve — or introduce — interference. An unknown app name fails with
// an error matching ErrAppNotInstalled (previously it returned nil,
// indistinguishable from "no threats").
func (h *Home) ReconfigureApp(appName string, cfg *Config) ([]Threat, error) {
	return h.det.Reconfigure(appName, cfg)
}

// Detector exposes the underlying detector for advanced use (statistics,
// pairwise queries).
func (h *Home) Detector() *detect.Detector { return h.det }

// DescribeRule renders a rule as an English sentence.
func DescribeRule(r *Rule) string { return frontend.DescribeRule(r) }

// DescribeThreat renders a threat explanation.
func DescribeThreat(t Threat) string { return frontend.DescribeThreat(t) }

// InstrumentApp rewrites a SmartApp to collect configuration information
// at install time (Sec. VII, Listing 3).
func InstrumentApp(src string) (string, error) { return instrument.Instrument(src) }

// ParseRecipe extracts a rule from IFTTT-style natural-language recipe
// text (Sec. VIII-D), returning it in the same representation as
// Groovy-extracted rules so it can flow into detection.
func ParseRecipe(app, text string) (*Rule, error) {
	rr, err := nlp.ParseRecipe(app, text)
	if err != nil {
		return nil, err
	}
	return rr.Rule, nil
}

// ClassifySwitchDescription classifies a generic switch device from app
// description text (used for type-level detection).
func ClassifySwitchDescription(description string) DeviceType {
	return nlp.ClassifySwitch(description)
}

// InstallRules installs a set of already-extracted rules (e.g. from
// ParseRecipe) as one app, enabling cross-platform detection: rules from
// IFTTT-style templates interplay with rules from Groovy apps.
func (h *Home) InstallRules(appName string, rules []*Rule, cfg *Config) []Threat {
	info := AppInfo{Name: appName}
	seen := map[string]bool{}
	addInput := func(name, capability string) {
		if name == "" || capability == "" || seen[name] {
			return
		}
		seen[name] = true
		info.Inputs = append(info.Inputs, symexec.InputDecl{
			Name: name, Type: "capability." + capability, Capability: capability,
		})
	}
	rs := &rule.RuleSet{App: appName, Rules: rules}
	rs.NumberRules()
	for _, r := range rules {
		addInput(r.Trigger.Subject, r.Trigger.Capability)
		addInput(r.Action.Subject, r.Action.Capability)
	}
	return h.det.Install(detect.NewInstalledApp(&symexec.Result{App: info, Rules: rs}, cfg))
}
