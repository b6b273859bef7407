// Command homeguardgw is the HomeGuard cluster gateway: a stateless
// router that serves the daemon's HTTP and HGRPC edges unchanged and
// fans each request out to a fleet of homeguardd nodes by consistent
// hashing over home IDs — so killing any one node degrades boundedly
// instead of taking every home offline.
//
// Usage:
//
//	homeguardgw -nodes node-a=127.0.0.1:8081,node-b=127.0.0.1:8181
//	            [-addr :8090] [-rpc-addr :8091]
//	            [-vnodes 64] [-heartbeat 250ms] [-fail-after 3]
//	            [-retries 3] [-retry-budget 2s]
//	            [-log-format text|json]
//
// # Routing
//
// -nodes lists the fleet as id=rpc-addr pairs; the gateway builds a
// consistent-hash ring (with -vnodes virtual nodes per member) over
// them. Each home ID hashes to one owning node; requests forward over
// pooled HGRPC clients. The gateway reads only the routing key — the
// path's {id} over HTTP, the body's "home" over RPC — and relays the
// request and response bodies verbatim, with the key in the REQ header
// so the node executes the home the gateway routed. On either edge the
// answer is the node's RPC response body as it arrived: the RES body
// over RPC, and the same bytes plus a newline over HTTP. The ring is
// versioned from the sorted membership, so gateway replicas configured
// identically route identically with no coordination.
//
// # Health, failover, retries
//
// A heartbeat loop pings every node each -heartbeat interval; a node is
// declared down after -fail-after consecutive misses and up again after
// one successful probe. Dead nodes are routed around (the next live
// owner clockwise on the ring) and the gateway's journal of acked
// mutating request bodies is replayed onto the new owner — tolerating
// ALREADY_EXISTS — before it serves the home, so no acknowledged
// operation is lost to a node death. Per-node circuit breakers shed
// calls to flapping nodes with UNAVAILABLE + retryAfterMs, and a retry
// layer (jittered exponential backoff honoring that hint, bounded by a
// per-request budget) retries idempotent-safe failures: UNAVAILABLE
// always, DEADLINE_EXCEEDED only for reads.
//
// # Planned migration
//
// POST /admin/migrate {"home": "h7", "to": "node-b"} drains the home on
// its current owner (MigrateHome → fleet.DetachHome), replays the
// snapcodec export on the target (AdoptHome → fleet.ImportHome), and
// pins routing — no re-extraction, no re-solving, and the move is
// journaled so a later failover rebuilds the migrated state.
//
// GET /cluster returns the ring version, per-node health/breaker state
// and migration pins. GET /metrics (add ?format=prometheus for text
// exposition) carries the homeguard_cluster_* series — ring version,
// nodes up, failovers, retries, resyncs, migrations — next to the
// standard homeguard_rpc_* series from the gateway's own RPC edge; see
// the root package's Observability section for the catalog. /healthz is
// process liveness; /readyz answers 200 while at least one fleet node
// is passing heartbeats.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/cluster"
	"homeguard/internal/obs"
	"homeguard/internal/rpc"
)

func main() {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	rpcAddr := flag.String("rpc-addr", ":8091",
		"RPC listen address for the framed gRPC-modeled transport (empty = disabled)")
	nodesSpec := flag.String("nodes", "",
		"fleet membership as id=rpc-addr pairs, comma-separated (required)")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per member on the hash ring")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "node ping interval")
	failAfter := flag.Int("fail-after", cluster.DefaultFailAfter,
		"consecutive missed pings before a node is declared down")
	retries := flag.Int("retries", cluster.DefaultAttempts-1,
		"max retries per routed request (idempotent-safe failures only)")
	retryBudget := flag.Duration("retry-budget", cluster.DefaultBudget,
		"cap on total backoff time per routed request")
	logFormat := flag.String("log-format", "text",
		"structured log encoding: text (human-readable) or json (one object per line)")
	flag.Parse()

	nodes, err := parseNodes(*nodesSpec)
	if err != nil {
		log.Fatalf("homeguardgw: -nodes: %v", err)
	}
	ring, err := cluster.NewRing(nodes, *vnodes)
	if err != nil {
		log.Fatalf("homeguardgw: %v", err)
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		log.Fatalf("homeguardgw: -log-format must be text or json, got %q", *logFormat)
	}
	slog.SetDefault(logger)

	o := obs.NewObserver()
	o.Registry.RegisterGoRuntime()
	rt := newRouter(routerOptions{
		Ring:      ring,
		Obs:       o,
		FailAfter: *failAfter,
		Retry:     cluster.RetryOptions{Attempts: *retries + 1, Budget: *retryBudget},
	})
	defer rt.close()

	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	go rt.heartbeat(hbCtx, *heartbeat)
	log.Printf("homeguardgw: ring %s over %d nodes (%d vnodes each), heartbeat %v, fail-after %d",
		ring.Version(), ring.NumNodes(), *vnodes, *heartbeat, *failAfter)

	gw := newGateway(rt, o)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           gw.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("homeguardgw: gateway listening on %s", *addr)

	var rpcSrv *rpc.Server
	if *rpcAddr != "" {
		lis, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatalf("homeguardgw: rpc listen: %v", err)
		}
		rpcSrv = rpc.NewServer(rt, rpc.ServerOptions{Obs: o})
		go func() {
			if err := rpcSrv.Serve(lis); err != nil {
				log.Printf("homeguardgw: rpc serve: %v", err)
			}
		}()
		log.Printf("homeguardgw: rpc edge listening on %s", *rpcAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("homeguardgw: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("homeguardgw: shutdown: %v", err)
	}
	if rpcSrv != nil {
		if err := rpcSrv.Close(); err != nil {
			log.Printf("homeguardgw: rpc close: %v", err)
		}
	}
}

// parseNodes turns "id=addr,id=addr" into ring membership.
func parseNodes(spec string) ([]cluster.Node, error) {
	if spec == "" {
		return nil, fmt.Errorf("empty (want id=rpc-addr,id=rpc-addr,...)")
	}
	var nodes []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad entry %q (want id=rpc-addr)", part)
		}
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	return nodes, nil
}

// gateway serves the daemon-compatible HTTP edge over the router, plus
// the cluster admin endpoints.
type gateway struct {
	rt  *router
	obs *obs.Observer
	mux *http.ServeMux
}

func newGateway(rt *router, o *obs.Observer) *gateway {
	g := &gateway{rt: rt, obs: o, mux: http.NewServeMux()}
	rpc.RegisterHTTP(g.mux, rt)
	g.mux.HandleFunc("POST /admin/migrate", g.handleMigrate)
	g.mux.HandleFunc("GET /cluster", g.handleCluster)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	return g
}

// handleMigrate is the planned-migration admin endpoint.
func (g *gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Home string `json:"home"`
		To   string `json:"to"`
	}
	if aerr := rpc.ReadBody(w, r, &req); aerr != nil {
		rpc.Respond(w, nil, aerr)
		return
	}
	if req.Home == "" || req.To == "" {
		rpc.Respond(w, nil, api.Errorf(api.CodeInvalidArgument, "migrate needs home and to"))
		return
	}
	resp, aerr := g.rt.migrate(r.Context(), req.Home, req.To)
	rpc.Respond(w, resp, aerr)
}

func (g *gateway) handleCluster(w http.ResponseWriter, _ *http.Request) {
	rpc.WriteJSON(w, http.StatusOK, g.rt.status())
}

func (g *gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := g.obs.Registry.WritePrometheus(w); err != nil {
			log.Printf("homeguardgw: prometheus exposition: %v", err)
		}
		return
	}
	rpc.WriteJSON(w, http.StatusOK, g.rt.status())
}

func (g *gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 while the gateway can route somewhere: a
// fleet with every node down has nowhere to send traffic, and load
// balancers should pull the gateway rather than let it shed 100%.
func (g *gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if g.rt.tracker.UpCount() == 0 {
		http.Error(w, "no live nodes", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
