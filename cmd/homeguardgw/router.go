package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/cluster"
	"homeguard/internal/obs"
	"homeguard/internal/rpc"
)

// resyncTimeout bounds one journal replay onto a new owner. Replays are
// warm-cache work on the target (content-addressed extraction), so this
// is generous.
const resyncTimeout = 30 * time.Second

// router is the gateway's brain: it implements rpc.Handler — so the
// unmodified HGRPC server and the HTTP routes of rpc.RegisterHTTP both
// dispatch into it — and forwards every request body verbatim to the
// owning node via pooled clients, with per-node circuit breakers, the
// cluster retry policy, and journal-based failover re-adoption. It
// reads nothing of a request but its routing key and nothing of a
// response at all.
//
// # Failover model
//
// The gateway journals the request body of every mutating op it has
// ACKED, per home, in memory, with the method and the key it routed
// by. A home's journal is the authoritative "what the client believes
// happened" record: when routing moves the home to a different node —
// its owner died, or a dead owner recovered — the journal's bodies are
// replayed verbatim onto the new target before the next op, bound to
// the same key, tolerating ALREADY_EXISTS (records the target already
// has, from its own WAL or an earlier replay). Replay cost is bounded
// because extraction and pair verdicts are content-addressed: the
// survivor re-solves nothing it has seen. Only an acked mutating op
// leaves gateway state behind: reads and failed writes of a home with
// no journal create none, and MigrateHome drops the home's journal. The
// journal lives for the gateway process; bounding it with
// checkpoint-aware truncation is future work, noted in homeguard.go.
type router struct {
	ring    *cluster.Ring
	tracker *cluster.Tracker
	pool    *cluster.Pool
	retry   *cluster.Retryer
	obs     *obs.Observer

	breakers map[string]*rpc.Breaker // node ID → per-node breaker

	retries    *obs.Counter
	failovers  *obs.Counter
	recoveries *obs.Counter
	resyncs    *obs.Counter
	resyncOps  *obs.Counter
	migrations *obs.Counter

	mu    sync.Mutex
	homes map[string]*homeState
	pins  map[string]string // home → node ID, set by planned migration
}

// homeState serializes one home's gateway-side lifecycle: ops, journal
// appends, and resyncs all run under its mutex — mirroring the per-home
// lock the daemons themselves take. refs, guarded by router.mu, counts
// the ops holding or waiting for it; the last one out forgets a home
// whose journal is empty.
type homeState struct {
	mu     sync.Mutex
	ops    []journalOp
	synced string // node ID the journal is known to be applied on
	refs   int
}

// journalOp is one acked mutating operation: its request body exactly
// as the client sent it and the key it was routed by, replayable
// verbatim.
type journalOp struct {
	method *rpc.Method
	key    string
	body   []byte
}

type routerOptions struct {
	Ring      *cluster.Ring
	Obs       *obs.Observer
	FailAfter int
	Retry     cluster.RetryOptions
	Breaker   rpc.BreakerOptions
	Dial      func(addr string) (*rpc.Client, error)
}

func newRouter(o routerOptions) *router {
	if o.Obs == nil {
		o.Obs = obs.NewObserver()
	}
	r := &router{
		ring:     o.Ring,
		pool:     cluster.NewPool(cluster.PoolOptions{Dial: o.Dial}),
		retry:    cluster.NewRetryer(o.Retry),
		obs:      o.Obs,
		breakers: map[string]*rpc.Breaker{},
		homes:    map[string]*homeState{},
		pins:     map[string]string{},

		retries:    o.Obs.Registry.Counter("homeguard_cluster_retries_total", "Routed calls retried after a retryable failure."),
		failovers:  o.Obs.Registry.Counter("homeguard_cluster_failovers_total", "Node down transitions (heartbeat fail-after-K)."),
		recoveries: o.Obs.Registry.Counter("homeguard_cluster_recoveries_total", "Node up transitions (heartbeat recover-after-probe)."),
		resyncs:    o.Obs.Registry.Counter("homeguard_cluster_resyncs_total", "Home journals replayed onto a new owner."),
		resyncOps:  o.Obs.Registry.Counter("homeguard_cluster_resync_ops_total", "Journaled ops replayed during resyncs."),
		migrations: o.Obs.Registry.Counter("homeguard_cluster_migrations_total", "Planned home migrations completed."),
	}
	ids := make([]string, 0, r.ring.NumNodes())
	for _, n := range r.ring.Nodes() {
		ids = append(ids, n.ID)
		r.breakers[n.ID] = rpc.NewBreaker(o.Breaker)
	}
	r.tracker = cluster.NewTracker(ids, cluster.HealthOptions{
		FailAfter:    o.FailAfter,
		OnTransition: r.onTransition,
	})
	r.registerCollector()
	return r
}

func (r *router) registerCollector() {
	r.obs.Registry.RegisterCollector(func(e *obs.Emit) {
		e.Gauge("homeguard_cluster_ring_version",
			"Numeric hash of the consistent-hash ring version (changes iff membership changes).",
			float64(r.ring.VersionHash()))
		e.Gauge("homeguard_cluster_nodes_total", "Configured fleet members.", float64(r.ring.NumNodes()))
		e.Gauge("homeguard_cluster_nodes_up", "Fleet members currently passing heartbeats.", float64(r.tracker.UpCount()))
		for _, nh := range r.tracker.Snapshot() {
			up := 0.0
			if nh.Up {
				up = 1
			}
			e.Gauge("homeguard_cluster_node_up", "Per-node heartbeat verdict (1 = live).",
				up, obs.Label{Name: "node", Value: nh.ID})
		}
		for id, b := range r.breakers {
			open := 0.0
			switch b.State() {
			case rpc.BreakerOpen:
				open = 1
			case rpc.BreakerHalfOpen:
				open = 0.5
			}
			e.Gauge("homeguard_cluster_node_breaker_open", "Per-node breaker state (0 closed, 0.5 half-open, 1 open).",
				open, obs.Label{Name: "node", Value: id})
		}
		r.mu.Lock()
		nhomes := len(r.homes)
		r.mu.Unlock()
		e.Gauge("homeguard_cluster_journal_homes", "Homes with a failover journal on this gateway.", float64(nhomes))
	})
}

// onTransition is the heartbeat tracker's callback: count the flap and
// kick a background rebalance so affected homes re-adopt eagerly
// instead of on first touch.
func (r *router) onTransition(nodeID string, up bool) {
	if up {
		r.recoveries.Inc()
		log.Printf("homeguardgw: node %s recovered", nodeID)
	} else {
		r.failovers.Inc()
		log.Printf("homeguardgw: node %s declared down, failing its homes over", nodeID)
	}
	go r.rebalance()
}

// heartbeat probes every node once per interval until ctx ends. Probes
// bypass the breakers on purpose: health must keep being measured while
// a breaker is open, or a recovered node could never close it.
func (r *router) heartbeat(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, n := range r.ring.Nodes() {
			r.probe(ctx, n, interval)
		}
	}
}

func (r *router) probe(ctx context.Context, n cluster.Node, interval time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, interval)
	defer cancel()
	c, err := r.pool.Get(n.Addr)
	if err != nil {
		r.tracker.ReportFailure(n.ID, err)
		return
	}
	resp, err := c.Ping(pctx)
	if err != nil {
		r.pool.Discard(n.Addr, c)
		r.tracker.ReportFailure(n.ID, err)
		return
	}
	if resp.Node != "" && resp.Node != n.ID {
		// The address answers, but it is not who the ring says it is —
		// routing to it would scatter homes onto a stranger.
		r.tracker.ReportFailure(n.ID, fmt.Errorf("node identity mismatch: probed %s, got %q", n.ID, resp.Node))
		return
	}
	r.tracker.ReportSuccess(n.ID)
}

// route resolves a home's current target: its migration pin when that
// node is live, otherwise the first live ring owner clockwise from the
// home's point.
func (r *router) route(home string) (cluster.Node, *api.Error) {
	r.mu.Lock()
	pin := r.pins[home]
	r.mu.Unlock()
	if pin != "" && r.tracker.Up(pin) {
		if n, ok := r.ring.NodeByID(pin); ok {
			return n, nil
		}
	}
	n, ok := r.ring.OwnerExcluding(home, r.tracker.Down)
	if !ok {
		return cluster.Node{}, api.Errorf(api.CodeUnavailable, "cluster: no live nodes")
	}
	return n, nil
}

// acquire returns the home's gateway state, locked, creating it when
// create is set; nil when the home has none and create is not set.
func (r *router) acquire(home string, create bool) *homeState {
	r.mu.Lock()
	hs := r.homes[home]
	if hs == nil {
		if !create {
			r.mu.Unlock()
			return nil
		}
		hs = &homeState{}
		r.homes[home] = hs
	}
	hs.refs++
	r.mu.Unlock()
	hs.mu.Lock()
	return hs
}

// release unlocks a state acquire returned and forgets it once no op
// holds it and its journal is empty.
func (r *router) release(home string, hs *homeState) {
	hs.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs.refs--; hs.refs == 0 && len(hs.ops) == 0 {
		delete(r.homes, home)
	}
}

// isTransport reports an UNAVAILABLE envelope — dial refused, conn
// lost, open breaker — the failures that indict the connection/node
// rather than the request.
func isTransport(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeUnavailable
}

// invoke runs one attempt against one node: breaker gate, pooled
// client, the call, then breaker and pool bookkeeping.
func (r *router) invoke(node cluster.Node, call func(c *rpc.Client) error) error {
	b := r.breakers[node.ID]
	if aerr := b.Admit("cluster: node " + node.ID); aerr != nil {
		return aerr
	}
	c, err := r.pool.Get(node.Addr)
	if err != nil {
		b.Failure()
		return err
	}
	err = call(c)
	switch {
	case isTransport(err):
		b.Failure()
		r.pool.Discard(node.Addr, c)
	case func() bool { var ae *api.Error; return errors.As(err, &ae) && ae.Code == api.CodeDeadlineExceeded }():
		// A timed-out node is a sick node; the connection itself is fine.
		b.Failure()
	default:
		b.Success()
	}
	return err
}

// Serve is the gateway side of rpc.Handler. It answers Ping itself and
// routes every other method by key — or, when the edge bound none, by
// the key-only decode m.KeyOf(body) — then resyncs the home's journal
// if routing moved it, relays body to the owner with the key in the
// REQ header, and appends the owner's response body, untouched, to dst.
// Retryable failures retry per the cluster policy; a method that is not
// Mutating is a read, for which DEADLINE_EXCEEDED is retryable too. An
// acked mutating op is journaled, except that MigrateHome drops the
// home's journal and pin: the home has left the cluster.
func (r *router) Serve(ctx context.Context, m *rpc.Method, key string, body, dst []byte) ([]byte, *api.Error) {
	if m == rpc.MethodPing.Method {
		return r.ping(dst)
	}
	if key == "" {
		var aerr *api.Error
		if key, aerr = m.KeyOf(body); aerr != nil {
			return nil, aerr
		}
	}
	hs := r.acquire(key, m.Mutating)
	if hs != nil {
		defer r.release(key, hs)
	}
	var out []byte
	retries, err := r.retry.Do(ctx, !m.Mutating, func(int) error {
		node, rerr := r.route(key)
		if rerr != nil {
			return rerr
		}
		if hs != nil {
			if err := r.syncLocked(hs, key, node); err != nil {
				return err
			}
		}
		return r.invoke(node, func(c *rpc.Client) (err error) {
			out, err = c.CallRaw(ctx, m.Name, key, body)
			return err
		})
	})
	r.retries.Add(uint64(retries))
	if err != nil {
		return nil, api.FromErr(err)
	}
	switch {
	case m == rpc.MethodMigrateHome.Method:
		hs.ops, hs.synced = nil, ""
		r.mu.Lock()
		delete(r.pins, key)
		r.mu.Unlock()
	case m.Mutating:
		hs.ops = append(hs.ops, journalOp{method: m, key: key, body: body})
	}
	return append(dst, out...), nil
}

// ping answers for the gateway itself: callers probing the gateway get
// its identity and a journal-sized view of the fleet, not a forwarded
// node answer, appended to dst.
func (r *router) ping(dst []byte) ([]byte, *api.Error) {
	r.mu.Lock()
	n := len(r.homes)
	r.mu.Unlock()
	out, err := json.Marshal(&api.PingResponse{Node: "gateway", Homes: n})
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encode response: %v", err)
	}
	return append(dst, out...), nil
}

// syncLocked makes node current for the home: when the journal was last
// applied elsewhere (failover, recovery snap-back, first contact), it
// replays every acked op in order. ALREADY_EXISTS answers are the
// target telling us it already has that record — its own WAL survived,
// or a previous partial replay got that far — and are skipped, which
// is what makes replay idempotent and restartable.
func (r *router) syncLocked(hs *homeState, home string, node cluster.Node) error {
	if hs.synced == node.ID {
		return nil
	}
	if len(hs.ops) == 0 {
		hs.synced = node.ID
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), resyncTimeout)
	defer cancel()
	for _, op := range hs.ops {
		err := r.invoke(node, func(c *rpc.Client) error {
			_, err := c.CallRaw(ctx, op.method.Name, op.key, op.body)
			return err
		})
		if err != nil {
			var ae *api.Error
			if errors.As(err, &ae) && ae.Code == api.CodeAlreadyExists {
				continue
			}
			return fmt.Errorf("cluster: resync %s onto %s (%s): %w", home, node.ID, op.method.Name, err)
		}
		r.resyncOps.Inc()
	}
	hs.synced = node.ID
	r.resyncs.Inc()
	log.Printf("homeguardgw: resynced home %s onto %s (%d journaled ops)", home, node.ID, len(hs.ops))
	return nil
}

// rebalance walks every journaled home after a health transition and
// resyncs the ones whose route moved, so failover re-adoption happens
// eagerly (bounded by the heartbeat window) instead of on first touch.
func (r *router) rebalance() {
	r.mu.Lock()
	names := make([]string, 0, len(r.homes))
	for h := range r.homes {
		names = append(names, h)
	}
	r.mu.Unlock()
	for _, home := range names {
		hs := r.acquire(home, false)
		if hs == nil {
			continue
		}
		if node, rerr := r.route(home); rerr == nil && hs.synced != node.ID && len(hs.ops) > 0 {
			if err := r.syncLocked(hs, home, node); err != nil {
				log.Printf("homeguardgw: rebalance: %v", err)
			}
		}
		r.release(home, hs)
	}
}

// BreakerState reports a NODE's breaker on the gateway (stages here are
// node IDs, not pipeline stages).
func (r *router) BreakerState(stage string) string {
	if b := r.breakers[stage]; b != nil {
		return b.State()
	}
	return ""
}

// migrate performs a planned migration: detach from the current owner,
// adopt on the named target, pin the home there, and rewrite the
// journal to the single adopt op (the snapshot subsumes the op
// history). On an adopt failure it puts the home back where it was.
func (r *router) migrate(ctx context.Context, home, targetID string) (*api.AdoptHomeResponse, *api.Error) {
	target, ok := r.ring.NodeByID(targetID)
	if !ok {
		return nil, api.Errorf(api.CodeInvalidArgument, "cluster: unknown target node %q", targetID)
	}
	if !r.tracker.Up(targetID) {
		return nil, api.Errorf(api.CodeUnavailable, "cluster: target node %s is down", targetID)
	}

	hs := r.acquire(home, true)
	defer r.release(home, hs)

	source, rerr := r.route(home)
	if rerr != nil {
		return nil, rerr
	}
	if source.ID == targetID {
		return nil, api.Errorf(api.CodeFailedPrecondition, "cluster: home %s already lives on %s", home, targetID)
	}
	var exported *api.MigrateHomeResponse
	if err := r.invoke(source, func(c *rpc.Client) error {
		var err error
		exported, err = c.MigrateHome(ctx, &api.MigrateHomeRequest{Home: home})
		return err
	}); err != nil {
		return nil, api.FromErr(err)
	}
	adopt, err := json.Marshal(&api.AdoptHomeRequest{Home: home, Snapshot: exported.Snapshot})
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "cluster: encode adopt of %s: %v", home, err)
	}
	adoptOn := func(n cluster.Node) (out []byte, err error) {
		err = r.invoke(n, func(c *rpc.Client) (err error) {
			out, err = c.CallRaw(ctx, rpc.MethodAdoptHome.Name, home, adopt)
			return err
		})
		return out, err
	}
	out, err := adoptOn(target)
	if err != nil {
		// The home is detached but not adopted: put it back on the source
		// rather than leaving it nowhere.
		if _, rbErr := adoptOn(source); rbErr != nil {
			log.Printf("homeguardgw: migrate %s: adopt on %s failed (%v) AND rollback onto %s failed (%v)",
				home, targetID, err, source.ID, rbErr)
			return nil, api.Errorf(api.CodeInternal,
				"cluster: home %s detached but neither adopt nor rollback succeeded: %v", home, err)
		}
		return nil, api.FromErr(err)
	}
	// The snapshot subsumes the old op history: journal just the adopt,
	// so a later failover rebuilds the migrated state, then pin routing.
	hs.ops = []journalOp{{method: rpc.MethodAdoptHome.Method, key: home, body: adopt}}
	hs.synced = targetID
	r.mu.Lock()
	r.pins[home] = targetID
	r.mu.Unlock()
	r.migrations.Inc()
	resp := new(api.AdoptHomeResponse)
	if err := json.Unmarshal(out, resp); err != nil {
		return nil, api.Errorf(api.CodeInternal, "cluster: bad adopt response for %s: %v", home, err)
	}
	log.Printf("homeguardgw: migrated home %s from %s to %s (%d apps)", home, source.ID, targetID, resp.Apps)
	return resp, nil
}

// status is the /cluster admin view.
type clusterStatus struct {
	RingVersion string              `json:"ringVersion"`
	Nodes       []clusterNodeStatus `json:"nodes"`
	Homes       int                 `json:"journaledHomes"`
	Pins        map[string]string   `json:"pins,omitempty"`
}

type clusterNodeStatus struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Up      bool   `json:"up"`
	Fails   int    `json:"consecutiveFails,omitempty"`
	LastErr string `json:"lastErr,omitempty"`
	Breaker string `json:"breaker"`
}

func (r *router) status() clusterStatus {
	st := clusterStatus{RingVersion: r.ring.Version(), Pins: map[string]string{}}
	health := map[string]cluster.NodeHealth{}
	for _, nh := range r.tracker.Snapshot() {
		health[nh.ID] = nh
	}
	for _, n := range r.ring.Nodes() {
		nh := health[n.ID]
		st.Nodes = append(st.Nodes, clusterNodeStatus{
			ID: n.ID, Addr: n.Addr, Up: nh.Up, Fails: nh.Fails, LastErr: nh.LastErr,
			Breaker: r.breakers[n.ID].State(),
		})
	}
	r.mu.Lock()
	st.Homes = len(r.homes)
	for h, n := range r.pins {
		st.Pins[h] = n
	}
	r.mu.Unlock()
	if len(st.Pins) == 0 {
		st.Pins = nil
	}
	return st
}

// close releases the pool.
func (r *router) close() { r.pool.Close() }
