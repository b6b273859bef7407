package main

import (
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/cluster"
	"homeguard/internal/fleet"
	"homeguard/internal/rpc"
)

// fleetNode is one in-process "daemon": a real fleet behind a real RPC
// edge on a loopback listener. kill() closes the edge like a crash;
// restart() brings a FRESH fleet up on the same address — a node that
// lost all in-memory state, the worst case journal replay must cover.
type fleetNode struct {
	t    testing.TB
	id   string
	addr string
	srv  *rpc.Server
}

func startNode(t testing.TB, id string) *fleetNode {
	t.Helper()
	n := &fleetNode{t: t, id: id}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = lis.Addr().String()
	n.serve(lis)
	return n
}

func (n *fleetNode) serve(lis net.Listener) {
	f := fleet.New(fleet.Options{Shards: 4})
	aud := audit.NewAuditor(audit.AuditorOptions{Extract: f.Cache()})
	n.srv = rpc.NewServer(rpc.NewService(f, rpc.ServiceOptions{NodeID: n.id, Auditor: aud}), rpc.ServerOptions{})
	srv := n.srv
	go srv.Serve(lis)
	n.t.Cleanup(func() { srv.Close() })
}

func (n *fleetNode) kill() { n.srv.Close() }

func (n *fleetNode) restart() {
	n.t.Helper()
	lis, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.t.Fatalf("restart on %s: %v", n.addr, err)
	}
	n.serve(lis)
}

// dial connects straight to the node, bypassing the gateway, to check
// where state actually lives.
func (n *fleetNode) dial() *rpc.Client {
	n.t.Helper()
	c, err := rpc.Dial(n.addr)
	if err != nil {
		n.t.Fatalf("dial %s: %v", n.addr, err)
	}
	n.t.Cleanup(func() { c.Close() })
	return c
}

// newTestRouter wires a router over the given nodes with test-friendly
// knobs: fail-after 2, fast retries, generous breakers (breaker
// behavior has its own tests in internal/rpc).
func newTestRouter(t testing.TB, nodes ...*fleetNode) *router {
	t.Helper()
	members := make([]cluster.Node, 0, len(nodes))
	for _, n := range nodes {
		members = append(members, cluster.Node{ID: n.id, Addr: n.addr})
	}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(routerOptions{
		Ring:      ring,
		FailAfter: 2,
		Retry:     cluster.RetryOptions{Attempts: 3, BaseDelay: 5 * time.Millisecond, Budget: time.Second},
		Breaker:   rpc.BreakerOptions{Threshold: 100},
	})
	t.Cleanup(r.close)
	return r
}

// markDown drives the tracker past the fail-after threshold the way the
// heartbeat loop would, without waiting on timers.
func markDown(r *router, n *fleetNode) {
	for i := 0; i < 3 && r.tracker.Up(n.id); i++ {
		r.tracker.ReportFailure(n.id, context.DeadlineExceeded)
	}
}

// call runs one table method through the router's raw entry point
// with a typed request and response, as a client of the gateway's edge
// sees it.
func call[Req, Resp any](ctx context.Context, r *router, d rpc.Desc[Req, Resp], req *Req) (*Resp, *api.Error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encode request: %v", err)
	}
	out, aerr := r.Serve(ctx, d.Method, "", body, nil)
	if aerr != nil {
		return nil, aerr
	}
	resp := new(Resp)
	if err := json.Unmarshal(out, resp); err != nil {
		return nil, api.Errorf(api.CodeInternal, "decode response: %v", err)
	}
	return resp, nil
}

// The typed methods the tests drive the router with.

func (r *router) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	return call(ctx, r, rpc.MethodInstall, req)
}

func (r *router) Accept(ctx context.Context, req *api.AcceptRequest) (*api.AcceptResponse, *api.Error) {
	return call(ctx, r, rpc.MethodAccept, req)
}

func (r *router) Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	return call(ctx, r, rpc.MethodThreats, req)
}

func (r *router) Apps(ctx context.Context, home string) (*api.AppsResponse, *api.Error) {
	return call(ctx, r, rpc.MethodApps, &api.AppsRequest{Home: home})
}

func (r *router) SubmitApps(ctx context.Context, req *api.SubmitAppsRequest) (*api.SubmitAppsResponse, *api.Error) {
	return call(ctx, r, rpc.MethodSubmitApps, req)
}

func (r *router) Findings(ctx context.Context, req *api.FindingsRequest) (*api.FindingsResponse, *api.Error) {
	return call(ctx, r, rpc.MethodFindings, req)
}

func install(t *testing.T, r *router, home, corpus string) *api.InstallResponse {
	t.Helper()
	resp, aerr := r.Install(context.Background(), &api.InstallRequest{Home: home, Corpus: corpus})
	if aerr != nil {
		t.Fatalf("install %s/%s: %v", home, corpus, aerr)
	}
	return resp
}

// homeOwnedBy finds a home name the ring places on the wanted node.
func homeOwnedBy(t *testing.T, ring *cluster.Ring, nodeID string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		h := "home-" + string(rune('a'+i%26)) + "-" + itoa(i)
		if ring.Owner(h).ID == nodeID {
			return h
		}
	}
	t.Fatalf("no home hashes onto %s", nodeID)
	return ""
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestRouterRoutesByRing: the gateway sends each home to its ring
// owner — the app lands on that node and only that node.
func TestRouterRoutesByRing(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	homeA := homeOwnedBy(t, r.ring, "node-a")
	homeB := homeOwnedBy(t, r.ring, "node-b")

	install(t, r, homeA, "ComfortTV")
	install(t, r, homeB, "ColdDefender")

	ctx := context.Background()
	ca, cb := na.dial(), nb.dial()
	if resp, err := ca.Apps(ctx, homeA); err != nil || len(resp.Apps) != 1 {
		t.Fatalf("owner node-a does not hold %s: %v %v", homeA, resp, err)
	}
	if _, err := cb.Apps(ctx, homeA); err == nil {
		t.Fatalf("non-owner node-b holds %s", homeA)
	}
	if resp, err := cb.Apps(ctx, homeB); err != nil || len(resp.Apps) != 1 {
		t.Fatalf("owner node-b does not hold %s: %v %v", homeB, resp, err)
	}

	// Reads route the same way.
	thr, aerr := r.Threats(ctx, &api.ThreatsRequest{Home: homeA})
	if aerr != nil || thr.HomeID != homeA {
		t.Fatalf("threats via gateway: %v %v", thr, aerr)
	}
}

// TestRouterFailoverReplaysJournal is the headline guarantee in
// miniature: the owner dies, and every op the gateway ACKED is
// replayed onto the survivor before the home is served again — even
// though the survivor never saw the original traffic.
func TestRouterFailoverReplaysJournal(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	home := homeOwnedBy(t, r.ring, "node-a")

	install(t, r, home, "ComfortTV")
	install(t, r, home, "ColdDefender")
	if _, aerr := r.Accept(context.Background(), &api.AcceptRequest{Home: home, Threats: []int{0}}); aerr != nil {
		t.Fatalf("accept: %v", aerr)
	}

	na.kill()
	markDown(r, na)
	if r.tracker.Up("node-a") {
		t.Fatal("node-a still up after misses")
	}

	// The next touch must transparently rebuild the home on node-b.
	apps, aerr := r.Apps(context.Background(), home)
	if aerr != nil {
		t.Fatalf("apps after failover: %v", aerr)
	}
	if len(apps.Apps) != 2 {
		t.Fatalf("failover lost acked installs: %v", apps.Apps)
	}
	// And the state really lives on the survivor now.
	cb := nb.dial()
	direct, err := cb.Apps(context.Background(), home)
	if err != nil || len(direct.Apps) != 2 {
		t.Fatalf("survivor node-b state: %v %v", direct, err)
	}
	if got := r.resyncs.Value(); got < 1 {
		t.Fatalf("resyncs counter = %d, want >= 1", got)
	}
	if got := r.failovers.Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}
}

// TestRouterRecoverySnapBack: when the dead owner comes back — with
// empty state, as after a crash without its WAL — routing snaps back to
// ring placement and the journal replays onto it.
func TestRouterRecoverySnapBack(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	home := homeOwnedBy(t, r.ring, "node-a")

	install(t, r, home, "ComfortTV")
	na.kill()
	markDown(r, na)
	install(t, r, home, "ColdDefender") // acked against the survivor

	na.restart() // fresh fleet, same address
	if recovered := r.tracker.ReportSuccess("node-a"); !recovered {
		t.Fatal("probe success did not recover node-a")
	}

	apps, aerr := r.Apps(context.Background(), home)
	if aerr != nil || len(apps.Apps) != 2 {
		t.Fatalf("apps after snap-back: %v %v", apps, aerr)
	}
	ca := na.dial()
	direct, err := ca.Apps(context.Background(), home)
	if err != nil || len(direct.Apps) != 2 {
		t.Fatalf("recovered owner state: %v %v", direct, err)
	}
	if got := r.recoveries.Value(); got != 1 {
		t.Fatalf("recoveries counter = %d, want 1", got)
	}
}

// TestRouterNoLiveNodes: with the whole fleet down the gateway sheds
// with UNAVAILABLE instead of hanging.
func TestRouterNoLiveNodes(t *testing.T) {
	na := startNode(t, "node-a")
	r := newTestRouter(t, na)
	na.kill()
	markDown(r, na)
	_, aerr := r.Install(context.Background(), &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
	if aerr == nil || aerr.Code != api.CodeUnavailable {
		t.Fatalf("err = %v, want UNAVAILABLE", aerr)
	}
}

// TestRouterStorePinned: the store endpoints ride one ring key, so
// submissions and the findings feed agree on an owner.
func TestRouterStorePinned(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	ctx := context.Background()
	sub, aerr := r.SubmitApps(ctx, &api.SubmitAppsRequest{
		Upserts: []api.StoreApp{{Name: "ComfortTV", Corpus: "ComfortTV"}},
	})
	if aerr != nil {
		t.Fatalf("submit: %v", aerr)
	}
	feed, aerr := r.Findings(ctx, &api.FindingsRequest{})
	if aerr != nil {
		t.Fatalf("findings: %v", aerr)
	}
	if feed.Rev < sub.Rev {
		t.Fatalf("findings rev %d behind submit rev %d: store ops split across nodes", feed.Rev, sub.Rev)
	}
}

// TestRouterMigrate: a planned migration moves the home, pins routing,
// and survives a later failover of the target through the rewritten
// journal.
func TestRouterMigrate(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	ctx := context.Background()
	home := homeOwnedBy(t, r.ring, "node-a")
	install(t, r, home, "ComfortTV")
	install(t, r, home, "ColdDefender")

	if _, aerr := r.migrate(ctx, home, "ghost"); aerr == nil || aerr.Code != api.CodeInvalidArgument {
		t.Fatalf("migrate to unknown node: %v", aerr)
	}
	if _, aerr := r.migrate(ctx, home, "node-a"); aerr == nil || aerr.Code != api.CodeFailedPrecondition {
		t.Fatalf("migrate onto current owner: %v", aerr)
	}
	resp, aerr := r.migrate(ctx, home, "node-b")
	if aerr != nil {
		t.Fatalf("migrate: %v", aerr)
	}
	if resp.Apps != 2 {
		t.Fatalf("migrated %d apps, want 2", resp.Apps)
	}

	// The home now lives on node-b and nowhere else.
	cb := nb.dial()
	if direct, err := cb.Apps(ctx, home); err != nil || len(direct.Apps) != 2 {
		t.Fatalf("target state after migrate: %v %v", direct, err)
	}
	ca := na.dial()
	if _, err := ca.Apps(ctx, home); err == nil {
		t.Fatal("source still serves the home after migrate")
	}
	st := r.status()
	if st.Pins[home] != "node-b" {
		t.Fatalf("status pins = %v, want %s on node-b", st.Pins, home)
	}
	// Ops keep following the pin even though the ring says node-a.
	install(t, r, home, "CatchLiveShow")
	if direct, err := cb.Apps(ctx, home); err != nil || len(direct.Apps) != 3 {
		t.Fatalf("pinned routing after migrate: %v %v", direct, err)
	}

	// Kill the migration target: the snapshot-adopt journal rebuilds the
	// home on the ring owner.
	nb.kill()
	markDown(r, nb)
	apps, aerr := r.Apps(ctx, home)
	if aerr != nil || len(apps.Apps) != 3 {
		t.Fatalf("apps after target death: %v %v", apps, aerr)
	}
	if direct, err := ca.Apps(ctx, home); err != nil || len(direct.Apps) != 3 {
		t.Fatalf("ring owner after target death: %v %v", direct, err)
	}
	// Migrating to a down node refuses.
	if _, aerr := r.migrate(ctx, home, "node-b"); aerr == nil || aerr.Code != api.CodeUnavailable {
		t.Fatalf("migrate onto dead node: %v", aerr)
	}
}

// TestRouterHeartbeatDrivesFailover runs the real heartbeat loop:
// detection and recovery happen within a few heartbeat windows, no
// manual tracker pokes.
func TestRouterHeartbeatDrivesFailover(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.heartbeat(ctx, 20*time.Millisecond)

	home := homeOwnedBy(t, r.ring, "node-a")
	install(t, r, home, "ComfortTV")

	na.kill()
	deadline := time.Now().Add(5 * time.Second)
	for r.tracker.Up("node-a") {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never declared node-a down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	apps, aerr := r.Apps(context.Background(), home)
	if aerr != nil || len(apps.Apps) != 1 {
		t.Fatalf("apps after heartbeat failover: %v %v", apps, aerr)
	}

	na.restart()
	for !r.tracker.Up("node-a") {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never recovered node-a")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = nb
}

// TestRouterIdentityMismatch: a live address answering with the wrong
// node ID reads as down — the ring must not scatter homes onto a
// stranger.
func TestRouterIdentityMismatch(t *testing.T) {
	impostor := startNode(t, "node-z") // answers Ping as node-z
	members := []cluster.Node{{ID: "node-a", Addr: impostor.addr}}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(routerOptions{Ring: ring, FailAfter: 1})
	t.Cleanup(r.close)
	r.probe(context.Background(), ring.Nodes()[0], time.Second)
	if r.tracker.Up("node-a") {
		t.Fatal("identity mismatch did not fail the probe")
	}
}

// TestRouterReadsLeaveNoState: only an acked mutating op leaves gateway
// state behind. Reads of homes the gateway never journaled and a failed
// install route without creating any, so the journal gauge, Ping and
// /cluster all stay at zero; one acked install then counts once, until
// MigrateHome takes the home out of the cluster.
func TestRouterReadsLeaveNoState(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		if _, aerr := r.Threats(ctx, &api.ThreatsRequest{Home: "ghost-" + itoa(i)}); aerr == nil || aerr.Code != api.CodeNotFound {
			t.Fatalf("threats of an unknown home: %v, want NOT_FOUND", aerr)
		}
	}
	if _, aerr := r.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"}); aerr == nil {
		t.Fatal("install of an unknown corpus app acked")
	}
	journaled := func() int {
		t.Helper()
		var sb strings.Builder
		if err := r.obs.Registry.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "homeguard_cluster_journal_homes "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("gauge %q: %v", line, err)
				}
				ping, aerr := call(ctx, r, rpc.MethodPing, &api.PingRequest{})
				if aerr != nil {
					t.Fatal(aerr)
				}
				if ping.Homes != n || r.status().Homes != n {
					t.Fatalf("gauge %d, Ping %d, /cluster %d", n, ping.Homes, r.status().Homes)
				}
				return n
			}
		}
		t.Fatal("no homeguard_cluster_journal_homes sample")
		return 0
	}
	if n := journaled(); n != 0 {
		t.Fatalf("journal gauge %d after reads and a failed install, want 0", n)
	}
	install(t, r, "h1", "ComfortTV")
	if n := journaled(); n != 1 {
		t.Fatalf("journal gauge %d after one acked install, want 1", n)
	}
	// The home leaves the cluster with its snapshot: no journal stays.
	if _, aerr := call(ctx, r, rpc.MethodMigrateHome, &api.MigrateHomeRequest{Home: "h1"}); aerr != nil {
		t.Fatalf("migrate out: %v", aerr)
	}
	if n := journaled(); n != 0 {
		t.Fatalf("journal gauge %d after MigrateHome, want 0", n)
	}
}

// TestRouterHomeStateConcurrent races reads, failed installs and acked
// installs on the same homes: the state of a home with an acked
// install must survive the others' releases, and a home with none
// must be forgotten.
func TestRouterHomeStateConcurrent(t *testing.T) {
	r := newTestRouter(t, startNode(t, "node-a"), startNode(t, "node-b"))
	ctx := context.Background()
	homes := []string{"c0", "c1", "c2", "c3"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				home := homes[(w+i)%len(homes)]
				r.Threats(ctx, &api.ThreatsRequest{Home: home})
				r.Install(ctx, &api.InstallRequest{Home: home, Corpus: "NoSuchApp"})
				if home == "c0" || home == "c1" {
					r.Install(ctx, &api.InstallRequest{Home: home, Corpus: "ComfortTV"}) // the first acks, the rest fail
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.status(); st.Homes != 2 {
		t.Fatalf("gateway holds state for %d homes, want 2 (c0 and c1)", st.Homes)
	}
	for _, home := range []string{"c0", "c1"} {
		if apps, aerr := r.Apps(ctx, home); aerr != nil || len(apps.Apps) != 1 {
			t.Fatalf("apps of %s: %v %v", home, apps, aerr)
		}
	}
}
