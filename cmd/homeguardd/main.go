// Command homeguardd is the HomeGuard fleet daemon: an enforcement edge
// that runs install-time CAI detection for many homes at once, sharing
// one content-addressed extraction cache across the fleet. It serves
// the same service core over two transports — HTTP/JSON and the framed
// gRPC-modeled RPC protocol of internal/rpc — plus an asynchronous
// event pipeline that ships install/threat events to a sink without
// ever blocking a verdict.
//
// Usage:
//
//	homeguardd [-addr :8080] [-rpc-addr :8081] [-shards 16]
//	           [-events-sink stdout|/path/to/events.jsonl]
//	           [-pprof-addr 127.0.0.1:6060]
//	           [-wal-dir /var/lib/homeguard/wal]
//	           [-fsync always|off]
//	           [-checkpoint-interval 1m]
//	           [-snapshot-path /var/lib/homeguard/wal/checkpoint]
//	           [-log-format text|json] [-trace-slow-ms 250]
//
// # RPC edge
//
// -rpc-addr (default :8081, empty disables) serves the framed RPC
// protocol: unary Install/InstallBatch/Reconfigure/Threats/Accept/Apps
// and the SubmitApps/Findings store methods, with
// per-RPC deadlines, gRPC status codes, and per-stage circuit breakers
// (extraction and detection trip independently; an open breaker sheds
// with UNAVAILABLE and a retryAfterMs hint). HTTP and RPC dispatch into
// one shared service core from one method table (internal/rpc's
// Methods: the HTTP routes below, the RPC dispatch and the request-body
// decoder all come from it), so verdicts and error codes are identical
// on either wire, and an HTTP response body is the RPC response body
// plus a newline, byte for byte: compact JSON, which the HTTP edge
// writes as the service core returned it. Every HTTP error body,
// the recovery gate's 503 included, is the {"error":{code,message}}
// envelope — see internal/rpc for the protocol and internal/api for
// the envelope.
//
// # Event pipeline
//
// -events-sink enables the fire-and-forget event writer: "stdout"
// emits one JSON object per line on standard output, any other value
// is an append-mode file path, empty (the default) disables the
// pipeline. Install, reconfigure and threat events — plus revision and
// finding events from the incremental store auditor — are published
// out of the request path into a bounded ring; a wedged sink
// costs dropped events (homeguard_events_dropped_total), never blocked
// verdicts. Delivery is at-most-once, drop-oldest under backpressure.
//
// # Observability
//
// The daemon carries the process-wide obs.Observer (see the root package's
// Observability section for the metric catalog and span stage names):
//
//   - GET /metrics serves the JSON snapshot it always has; adding
//     ?format=prometheus serves the same counters in Prometheus text
//     exposition format 0.0.4 under stable homeguard_* names, suitable
//     for a scrape config with no client library in the loop. RPC
//     serving adds the homeguard_rpc_* series (requests by method and
//     code, latency histogram, breaker states) and the
//     event pipeline the homeguard_events_* series.
//   - GET /debug/requests serves the slow-request capture: the N slowest
//     and M most recent traced request span trees as JSON, each tree
//     carrying per-stage timings (extract, detect, compile, solve, ...).
//   - -trace-slow-ms N enables pipeline span tracing and logs any traced
//     request slower than N milliseconds as a structured slog record
//     (level WARN, attrs span/duration/trace). 0 — the default — leaves
//     tracing compiled in but disabled: span calls are nil no-ops and the
//     hot detection path stays allocation-free.
//   - -log-format selects text (default, human logs) or json (one slog
//     JSON object per line, for log shippers).
//
// # Health probes
//
// GET /healthz is liveness: 200 while the process can serve, 503 once a
// graceful drain has begun. GET /readyz is readiness: 503 until the
// checkpoint restore and WAL replay (when configured) have
// finished and the home shards are initialized, 200 while serving, and
// 503 again during drain so load balancers pull the instance before
// connections are forcibly closed. While recovering, every API route
// except the probes answers 503 UNAVAILABLE (retryAfterMs 1000) with
// Retry-After: 1 — the listener is up
// (so orchestrators see the process, and readiness honestly reports
// the recovery phase) but no request observes half-replayed state.
//
// # Durability (write-ahead log + background checkpoints)
//
// -wal-dir, when set, makes the daemon crash-safe and warm-starting:
// every state-changing operation (home install, reconfigure, threat
// accept, store audit batch) is appended to a segmented write-ahead log
// in that directory BEFORE the client sees success, and a background
// checkpointer periodically persists the full state — every home as its
// op history (installs, reconfigures and accepts with their resolved
// configs, replayed on restore to derive its threats and, through the
// shared pair-verdict cache, solving each app pair once) with its apps'
// sources, and the store auditor's apps as sources — then
// garbage-collects the log segments the checkpoint covers. On boot the
// daemon loads the newest checkpoint and replays the log tail, so a kill
// -9 (or kernel panic) loses nothing that was acknowledged: recovery
// converges to an exact prefix of the acked operation sequence, with at
// most one durable-but-unacked trailing op.
//
//   - -fsync always (the default) fsyncs the log before every ack —
//     the zero-loss configuration the crash-recovery CI job runs.
//   - -fsync off leaves flushing to the OS page cache (still safe
//     against process death, not against host death).
//   - -checkpoint-interval sets the checkpointer period (default 1m;
//     0 checkpoints only on graceful shutdown). Checkpoints are
//     written to -snapshot-path, defaulting to <wal-dir>/checkpoint;
//     -snapshot-path without -wal-dir is a usage error.
//
// Without -wal-dir the daemon persists nothing. -wal-dir with -fsync off
// is the cheap warm start: a restart gets its homes and store back from
// the checkpoint, extracting each persisted source once before it turns
// ready, so a later install of an app a checkpointed home installed is
// a cache hit (a source no home installed is extracted again).
//
// Log records are logical, not physical: an install record carries the
// app's Groovy source and its resolved config (a store batch record its
// upserts' sources), and replay installs the source again through the
// extraction cache, counting no lookup — shared with a restored home
// that installed that source, a fresh symbolic execution otherwise —
// without re-running config resolution. Replay is idempotent via per-entity LSN
// watermarks persisted in the checkpoint (a record at or below an
// entity's watermark is skipped), so a checkpoint plus an overlapping
// tail recovers exactly once. A torn final record (the crash landed mid
// write) is truncated on open; corruption anywhere earlier refuses the
// log rather than replaying garbage, and a corrupt checkpoint is fatal —
// covered segments may already be GC'd, so serving a partial restore
// would silently drop acked state.
//
// The checkpoint file is one "HGCKSNP\x00" meta section (the log
// position the checkpoint covers) followed by the fleet-homes and
// auditor sections back to back, each in the
// internal/snapcodec framing (8-byte magic, big-endian uint32 version,
// length-prefixed records, end sentinel, SHA-256 trailer) and each
// rejecting version skew and damage with typed errors. A file that does
// not start with the meta section fails boot like any other damage.
//
// # Profiling
//
// -pprof-addr, when set, serves Go's net/http/pprof profiling endpoints
// (/debug/pprof/...) on a SEPARATE listener so profiling is never exposed
// on the public API address. Bind it to localhost (or an internal
// interface) and profile a live daemon with e.g.:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//
// The endpoints are off by default; an empty -pprof-addr starts no
// profiling listener at all.
//
// HTTP API (every error body is the shared envelope
// {"error": {"code": "...", "message": "..."}} with the code drawn from
// the gRPC vocabulary — the same envelope the RPC transport carries):
//
//	POST /homes/{id}/install        body {"source": "..."} or {"corpus": "AppName"},
//	                                optional "config"; returns the install
//	                                result (rules, threats, chains, report)
//	POST /homes/{id}/install-batch  body {"items": [{"corpus": ...}, ...]};
//	                                installs in order with parallel
//	                                extraction prewarm; per-item results
//	POST /homes/{id}/reconfigure    body {"app": "AppName", "config": {...}};
//	                                returns threats under the new config;
//	                                omitting config keeps the current one
//	POST /homes/{id}/accept         body {"threats": [0, 2]} — accept
//	                                threats by log index so later installs
//	                                report chains through them (Sec. VI-D)
//	GET  /homes/{id}/threats        every threat reported for the home;
//	                                ?active=true returns the incremental
//	                                ledger's CURRENT set instead (latest
//	                                verdict per app pair — reconfigure-
//	                                resolved threats gone; entries carry no
//	                                log indices)
//	GET  /homes/{id}/apps           installed app names
//	POST /store/apps                body {"upserts": [{"corpus"|"source": ...,
//	                                "name": ..., "config": ...}],
//	                                "removes": ["AppName"]}; applies one
//	                                batch to the incremental store auditor
//	                                and returns the revision with its
//	                                added/resolved findings delta
//	GET  /store/findings            store findings feed; ?since=<rev>
//	                                returns the delta after that revision
//	                                (or a reset snapshot when the revision
//	                                aged out of the retained history)
//	GET  /metrics                   fleet metrics: homes, installs,
//	                                extraction and pair-verdict cache hit
//	                                rates, footprint-prune and solver-call
//	                                counters, p50/p99 install latency,
//	                                per-threat-kind counts; add
//	                                ?format=prometheus for text exposition
//	GET  /debug/requests            slow-request capture: slowest + most
//	                                recent traced span trees (JSON)
//	GET  /healthz                   liveness probe (503 while draining)
//	GET  /readyz                    readiness probe (503 before the checkpoint
//	                                restore completes and while draining)
//
// The config object has four optional maps:
//
//	{
//	  "devices":     {"inputName": "device-id"},
//	  "values":      {"inputName": "string or number or bool"},
//	  "valueLists":  {"inputName": ["a", "b"]},
//	  "deviceTypes": {"inputName": "heater"}
//	}
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/events"
	"homeguard/internal/fleet"
	"homeguard/internal/obs"
	"homeguard/internal/rpc"
	"homeguard/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	rpcAddr := flag.String("rpc-addr", ":8081",
		"RPC listen address for the framed gRPC-modeled transport (empty = disabled)")
	shards := flag.Int("shards", 16, "home-map shard count")
	eventsSink := flag.String("events-sink", "",
		`async event sink: "stdout" for JSON lines on stdout, any other value is an append-mode file path (empty = disabled)`)
	pprofAddr := flag.String("pprof-addr", "",
		"optional address for net/http/pprof profiling endpoints (empty = disabled); bind to localhost")
	snapshotPath := flag.String("snapshot-path", "",
		"checkpoint file for -wal-dir: the full daemon state, restored on boot before the log replays (empty = <wal-dir>/checkpoint; requires -wal-dir)")
	walDir := flag.String("wal-dir", "",
		"write-ahead-log directory: every mutation is logged before acknowledgment and replayed on boot (empty = durability off)")
	fsyncMode := flag.String("fsync", "always",
		`WAL fsync policy: "always" (fsync before every acknowledgment), "off" (no fsync; a crash may lose OS-buffered records)`)
	checkpointInterval := flag.Duration("checkpoint-interval", time.Minute,
		"how often the background checkpointer persists full state and collects covered WAL segments (0 = checkpoint only on graceful shutdown)")
	logFormat := flag.String("log-format", "text",
		"structured log encoding: text (human-readable) or json (one object per line)")
	traceSlowMs := flag.Int("trace-slow-ms", 0,
		"enable pipeline span tracing and log requests slower than this many milliseconds (0 = tracing disabled)")
	flag.StringVar(&nodeID, "node-id", "",
		"stable cluster identity reported in Ping responses; gateways refuse to route to an address whose Ping answers with a different ID (empty = standalone)")
	flag.Parse()

	fsyncPolicy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("homeguardd: -fsync: %v", err)
	}
	switch {
	case *walDir == "" && *snapshotPath != "":
		log.Fatalf("homeguardd: -snapshot-path is the checkpoint file of -wal-dir and needs it (for a warm start without fsync cost, use -wal-dir DIR -fsync off)")
	case *walDir != "" && *snapshotPath == "":
		*snapshotPath = filepath.Join(*walDir, "checkpoint")
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		log.Fatalf("homeguardd: -log-format must be text or json, got %q", *logFormat)
	}
	slog.SetDefault(logger)

	opts := fleet.Options{Shards: *shards, Obs: obs.NewObserver()}
	opts.Obs.Registry.RegisterGoRuntime()
	var eventWriter *events.Writer
	if *eventsSink != "" {
		var sink events.Sink
		if *eventsSink == "stdout" {
			sink = events.NewJSONSink(os.Stdout)
		} else {
			var err error
			sink, err = events.NewFileSink(*eventsSink)
			if err != nil {
				log.Fatalf("homeguardd: -events-sink: %v", err)
			}
		}
		eventWriter = events.NewWriter(sink, events.Options{Registry: opts.Obs.Registry})
		opts.Events = eventWriter
		log.Printf("homeguardd: event pipeline on (sink %s)", *eventsSink)
	}

	srv := newServer(opts)
	srv.obs.Tracer.SetLogger(logger)
	if *traceSlowMs > 0 {
		srv.obs.Tracer.SetSlowThreshold(time.Duration(*traceSlowMs) * time.Millisecond)
		srv.obs.Tracer.SetEnabled(true)
		log.Printf("homeguardd: span tracing on, logging requests slower than %dms", *traceSlowMs)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	// The HTTP listener comes up BEFORE recovery so orchestrators probing
	// /readyz see 503 "starting" (not connection refused) for the whole
	// checkpoint restore + WAL replay, and flip to 200 the moment the
	// recovered state serves. The gate refuses API traffic until then —
	// a request served against half-replayed state would be a lie.
	//
	// Explicit timeouts: the default zero-timeout server lets stalled
	// peers hold connections (and their goroutines) forever.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.gate(srv.mux),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("homeguardd: fleet daemon listening on %s", *addr)

	var wlog *wal.Log
	if *walDir != "" {
		wlog = bootRecover(srv, *walDir, *snapshotPath, wal.Options{
			Dir:      *walDir,
			Fsync:    fsyncPolicy,
			Registry: srv.obs.Registry,
		})
	}
	srv.markReady()

	// RPC listener: same service core as the HTTP routes, so the two
	// transports cannot diverge. Started after recovery — the framed
	// protocol has no readiness probe, so it must not accept mutations
	// mid-replay.
	var rpcSrv *rpc.Server
	if *rpcAddr != "" {
		lis, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatalf("homeguardd: rpc listen: %v", err)
		}
		rpcSrv = rpc.NewServer(srv.svc, rpc.ServerOptions{Obs: srv.obs})
		go func() {
			if err := rpcSrv.Serve(lis); err != nil {
				log.Printf("homeguardd: rpc serve: %v", err)
			}
		}()
		log.Printf("homeguardd: rpc edge listening on %s", *rpcAddr)
	}

	// The background checkpointer replaces save-on-shutdown-only
	// persistence: replay after a crash is bounded by one interval of
	// log, not the daemon's whole uptime.
	ckptCtx, ckptCancel := context.WithCancel(context.Background())
	ckptDone := make(chan struct{})
	if wlog != nil && *checkpointInterval > 0 {
		go func() {
			defer close(ckptDone)
			runCheckpointer(ckptCtx, *checkpointInterval, *snapshotPath, wlog, srv.fleet, srv.auditor)
		}()
	} else {
		close(ckptDone)
	}

	// Serve until SIGINT/SIGTERM, then drain connections and persist a
	// final checkpoint: a routine restart must not cost the fleet a cold
	// extraction/solving storm — or any replay at all.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("homeguardd: shutting down")
	// Flip the probes to 503 first so orchestrators stop routing new
	// traffic while in-flight requests drain.
	srv.startDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("homeguardd: shutdown: %v", err)
	}
	if rpcSrv != nil {
		if err := rpcSrv.Close(); err != nil {
			log.Printf("homeguardd: rpc close: %v", err)
		}
	}
	ckptCancel()
	<-ckptDone
	if wlog != nil {
		if err := checkpoint(*snapshotPath, wlog, srv.fleet, srv.auditor); err != nil {
			log.Printf("homeguardd: final checkpoint failed (the log still covers everything): %v", err)
		}
		if err := wlog.Close(); err != nil {
			log.Printf("homeguardd: wal close: %v", err)
		}
	}
	// Last: drain the buffered events so a graceful restart loses none.
	if eventWriter != nil {
		if err := eventWriter.Close(); err != nil {
			log.Printf("homeguardd: event sink close: %v", err)
		}
	}
}

// servePprof runs the profiling listener. A dedicated mux (rather than
// http.DefaultServeMux, which net/http/pprof auto-registers on) keeps the
// endpoints off the API mux even if other code ever serves the default
// mux, and a dedicated server keeps profiling traffic off the API
// listener's timeouts — a 30s CPU profile would trip a WriteTimeout
// sized for JSON responses.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("homeguardd: pprof endpoints on %s/debug/pprof/", addr)
	hs := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil {
		log.Printf("homeguardd: pprof listener: %v", err)
	}
}

type server struct {
	fleet   *fleet.Fleet
	auditor *audit.Auditor
	svc     *rpc.Service
	obs     *obs.Observer
	mux     *http.ServeMux
	// ready flips true once boot (including any checkpoint restore) is
	// complete; draining flips true when graceful shutdown begins. Both
	// are read by the health probes on every scrape.
	ready    atomic.Bool
	draining atomic.Bool
}

// nodeID is the daemon's stable cluster identity (-node-id), answered
// in Ping responses so gateways can verify the address they dialed is
// the member the ring says it is. Empty in standalone deployments and
// in-process tests.
var nodeID string

// newServer builds the daemon around one process-wide observability
// bundle: the fleet registers its metric collector on opts.Obs (created
// here when the caller left it nil), and the same bundle's tracer and
// capture back /debug/requests and the slow-request log. Both
// transports dispatch into one rpc.Service through the rpc method
// table, so HTTP routes get the per-stage circuit breakers and the
// shared error envelope for free.
func newServer(opts fleet.Options) *server {
	if opts.Obs == nil {
		opts.Obs = obs.NewObserver()
	}
	f := fleet.New(opts)
	// The incremental store auditor shares the fleet's extraction cache,
	// observability bundle and event pipeline: store revisions surface in
	// the same scrape and event feed as per-home installs.
	aud := audit.NewAuditor(audit.AuditorOptions{
		Extract: f.Cache(),
		Obs:     opts.Obs,
		Events:  opts.Events,
	})
	s := &server{
		fleet:   f,
		auditor: aud,
		svc:     rpc.NewService(f, rpc.ServiceOptions{Auditor: aud, NodeID: nodeID}),
		obs:     opts.Obs,
		mux:     http.NewServeMux(),
	}
	rpc.RegisterHTTP(s.mux, s.svc)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// markReady is called once boot completes (after the optional checkpoint
// restore and log replay); /readyz answers 503 until then.
func (s *server) markReady() { s.ready.Store(true) }

// startDrain flips both probes to 503 so orchestrators stop routing new
// traffic while the HTTP server drains in-flight requests.
func (s *server) startDrain() { s.draining.Store(true) }

// gate refuses API traffic until boot recovery completes, with the
// UNAVAILABLE error envelope (503), a one-second retryAfterMs hint and
// the matching Retry-After header. The probes pass through so /readyz
// can answer "starting" honestly; a request served against
// half-replayed state would return answers the recovered daemon
// contradicts moments later.
func (s *server) gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			w.Header().Set("Retry-After", "1")
			rpc.Respond(w, nil, &api.Error{Code: api.CodeUnavailable, Message: "recovering", RetryAfterMs: 1000})
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "starting", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.obs.Registry.WritePrometheus(w); err != nil {
			log.Printf("homeguardd: prometheus exposition: %v", err)
		}
		return
	}
	m := s.fleet.Metrics()
	kinds := map[string]uint64{}
	for k, v := range m.ThreatsByKind {
		kinds[string(k)] = v
	}
	rpc.WriteJSON(w, http.StatusOK, map[string]any{
		"homes":            m.Homes,
		"installs":         m.Installs,
		"installErrors":    m.InstallErrors,
		"installConflicts": m.InstallConflicts,
		"reconfigures":     m.Reconfigures,
		"threatsByKind":    kinds,
		"installP50Ms":     float64(m.InstallP50.Microseconds()) / 1000.0,
		"installP99Ms":     float64(m.InstallP99.Microseconds()) / 1000.0,
		"cacheLookups":     m.Cache.Lookups,
		"cacheHits":        m.Cache.Hits,
		"cacheMisses":      m.Cache.Misses,
		"cacheEntries":     m.Cache.Entries,
		"cacheEvictions":   m.Cache.Evictions,
		"cacheHitRate":     m.Cache.HitRate(),
		"distinctApps":     m.Cache.Entries,
		"extractionsRun":   m.Cache.Misses,
		// Pair-verdict cache: app-pair detection verdicts shared across
		// homes, so a catalog is solved once per distinct pair fleet-wide.
		"pairCacheLookups": m.PairVerdicts.Lookups,
		"pairCacheHits":    m.PairVerdicts.Hits,
		"pairCacheMisses":  m.PairVerdicts.Misses,
		"pairCacheEntries": m.PairVerdicts.Entries,
		"pairCacheHitRate": m.PairVerdicts.HitRate(),
		// Detector work fleet-wide: rule pairs checked, pairs skipped by
		// the footprint prune, and solver invocations actually run.
		"pairsChecked": m.Detectors.PairsChecked,
		"pairsPruned":  m.Detectors.PairsPruned,
		// Footprint-channel index effectiveness: candidate app pairs
		// generated from posting lists vs rule pairs never generated at
		// all (the sublinear-detection speedup in one ratio).
		"pairsIndexed":        m.Detectors.PairsIndexed,
		"pairsSkippedByIndex": m.Detectors.PairsSkippedByIndex,
		"solverCalls":         m.Detectors.SolverCalls,
		// Nonzero means solver budgets were exhausted and some verdicts
		// degraded to the conservative "potential threat" form.
		"solverLimitHits": m.Detectors.SearchLimitHits,
		// Circuit-breaker states of the service core's pipeline stages.
		"breakerExtract": s.svc.BreakerState(rpc.StageExtract),
		"breakerDetect":  s.svc.BreakerState(rpc.StageDetect),
	})
}

// handleDebugRequests serves the slow-request capture: span trees for
// the slowest and most recent traced requests. Empty (total 0) until
// tracing is enabled with -trace-slow-ms.
func (s *server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	rpc.WriteJSON(w, http.StatusOK, s.obs.Capture.Snapshot())
}
