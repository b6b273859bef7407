package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
	"homeguard/internal/rpc"
)

const (
	// opDeadline bounds every call, so a lost response fails one op
	// instead of hanging the run.
	opDeadline = 10 * time.Second
	// loadConns is the closed-loop client count: one RPC connection each,
	// matching the two cores the benchmark host has.
	loadConns = 2
	// installOpsPerSec is the timed operations per nominal second of
	// -seconds. Fixed, so every run sends the same operations, and one
	// value for both install workloads, so they send the same stream and
	// their threat-log digests must agree.
	installOpsPerSec = 2500
)

// installEnv is one booted install deployment: the node, the gateway in
// front of it (install-durable), and the load connections.
type installEnv struct {
	cfg     config
	node    *server
	gw      *server
	walDir  string
	clients []*rpc.Client
}

// nodeArgs are homeguardd's flags. With a WAL every ack waits for its
// fsync, and the checkpoint timer is off so no timer-driven work lands
// in the timed window; kill -9 recovery then replays the whole log.
func nodeArgs(walDir string) []string {
	args := []string{"-node-id", "node-a"}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-fsync", "always", "-checkpoint-interval", "0")
	}
	return args
}

func bootInstall(cfg config, walDir string, durable bool) (*installEnv, error) {
	e := &installEnv{cfg: cfg, walDir: walDir}
	var err error
	if e.node, err = startServer("homeguardd", filepath.Join(cfg.bin, "homeguardd"), nodeArgs(walDir)...); err != nil {
		return nil, err
	}
	target := e.node.rpcAddr
	if durable {
		e.gw, err = startServer("homeguardgw", filepath.Join(cfg.bin, "homeguardgw"), "-nodes", "node-a="+e.node.rpcAddr)
		if err != nil {
			e.stop()
			return nil, err
		}
		target = e.gw.rpcAddr
	}
	for i := 0; i < loadConns; i++ {
		cl, err := rpc.DialTimeout(target, opDeadline)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func (e *installEnv) closeClients() {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
}

// stop ends every process of the deployment and waits for them.
func (e *installEnv) stop() {
	e.closeClients()
	e.gw.kill()
	e.node.kill()
}

// restartNode kill -9s the node and boots it again on the same WAL
// directory, returning the time from spawn to ready.
func (e *installEnv) restartNode() (time.Duration, error) {
	e.node.kill()
	start := time.Now()
	n, err := startServer("homeguardd", filepath.Join(e.cfg.bin, "homeguardd"), nodeArgs(e.walDir)...)
	if err != nil {
		return 0, err
	}
	e.node = n
	return time.Since(start), nil
}

// preload installs every preload home through InstallBatch, spread over
// the load connections, so the timed phase starts on warm caches.
func (e *installEnv) preload(plan *installPlan) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for w, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(plan.Preload); i += len(e.clients) {
				h := plan.Preload[i]
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				resp, err := cl.InstallBatch(ctx, &api.InstallBatchRequest{Home: h.ID, Items: plan.installItems(h)})
				cancel()
				if err == nil {
					for _, r := range resp.Results {
						if r.Error != nil {
							err = r.Error
							break
						}
					}
				}
				if err != nil {
					errs[w] = fmt.Errorf("preload %s: %w", h.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeFig3 installs ComfortTV and then ColdDefender into a fresh home
// and reports whether the second install reports the paper's Fig. 3
// actuator race between ComfortTV/r1 and ColdDefender/r1.
func probeFig3(install func(home, src string) ([]api.Threat, error), home string) (bool, error) {
	var last []api.Threat
	for _, name := range []string{"ComfortTV", "ColdDefender"} {
		app, ok := corpus.Get(name)
		if !ok {
			return false, fmt.Errorf("corpus has no %s", name)
		}
		ts, err := install(home, app.Source)
		if err != nil {
			return false, fmt.Errorf("probe install %s: %w", name, err)
		}
		last = ts
	}
	for _, t := range last {
		pair := t.Rule1 + " " + t.Rule2
		if t.Kind == "AR" && (pair == "ComfortTV/r1 ColdDefender/r1" || pair == "ColdDefender/r1 ComfortTV/r1") {
			return true, nil
		}
	}
	return false, nil
}

// ackLog is, per home, the apps whose install was acknowledged: the
// installs a restart must not lose. Each load connection owns one.
type ackLog map[string][]string

// runSegment sends the operations of homes, dealt round-robin to the
// connections, each connection a closed loop. The caller fills in the
// segment's server CPU.
func runSegment(clients []*rpc.Client, acked []ackLog, plan *installPlan, homes []homePlan) segment {
	parts := make([]segment, len(clients))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := w; i < len(homes); i += len(clients) {
				runHome(cl, plan, homes[i], &parts[w], acked[w])
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	seg := segment{wall: time.Since(t0)}
	for _, p := range parts {
		seg.writes = append(seg.writes, p.writes...)
		seg.reads = append(seg.reads, p.reads...)
		seg.failed += p.failed
	}
	return seg
}

func runHome(cl *rpc.Client, plan *installPlan, h homePlan, st *segment, acked ackLog) {
	for _, o := range h.Ops {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		t := time.Now()
		// A nil response skips decoding the body: the generator should
		// spend its share of the two cores sending, not parsing verdicts.
		var err error
		switch o.Kind {
		case opInstall:
			err = cl.Call(ctx, "Install", &api.InstallRequest{Home: h.ID, Source: plan.Pool[o.App].Source}, nil)
		case opReconfigure:
			err = cl.Call(ctx, "Reconfigure", &api.ReconfigureRequest{Home: h.ID, App: plan.Pool[o.App].Name}, nil)
		default:
			err = cl.Call(ctx, "Threats", &api.ThreatsRequest{Home: h.ID}, nil)
		}
		d := time.Since(t)
		cancel()
		switch {
		case err != nil:
			st.failed++
		case o.Kind == opThreats:
			st.reads = append(st.reads, d)
		default:
			st.writes = append(st.writes, d)
			if o.Kind == opInstall {
				acked[h.ID] = append(acked[h.ID], plan.Pool[o.App].Name)
			}
		}
	}
}

// serverDigest reads every timed home's threat log through cl.
func serverDigest(cl *rpc.Client, homes []homePlan) (string, error) {
	d := sha256.New()
	for i, h := range homes {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		resp, err := cl.Threats(ctx, &api.ThreatsRequest{Home: h.ID})
		cancel()
		if err != nil {
			return "", fmt.Errorf("threats %s: %w", h.ID, err)
		}
		writeThreats(d, i, resp.Threats)
	}
	return hexSum(d), nil
}

// missingAcked counts acknowledged installs the node no longer holds.
func missingAcked(cl *rpc.Client, acked []ackLog) (int, error) {
	missing := 0
	for _, log := range acked {
		for home, apps := range log {
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			resp, err := cl.Apps(ctx, home)
			cancel()
			if err != nil {
				return 0, fmt.Errorf("apps %s: %w", home, err)
			}
			have := map[string]bool{}
			for _, a := range resp.Apps {
				have[a] = true
			}
			for _, a := range apps {
				if !have[a] {
					missing++
				}
			}
		}
	}
	return missing, nil
}

// procSample is the /proc reading of the servers and this process at
// one edge of the timed window.
type procSample struct {
	node, gw, self time.Duration
}

func (e *installEnv) sampleCPU() (procSample, error) {
	var s procSample
	var err error
	if s.node, err = cpuTime(e.node.pid()); err != nil {
		return s, err
	}
	if e.gw != nil {
		if s.gw, err = cpuTime(e.gw.pid()); err != nil {
			return s, err
		}
	}
	s.self = selfCPU()
	return s, nil
}

func runInstall(cfg config, durable bool) (*outcome, error) {
	plan, err := genInstallPlan(cfg.seed, cfg.seconds*installOpsPerSec)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: plan.Ops}
	hc := &http.Client{Timeout: opDeadline}

	// Set up several times; the last deployment serves the timed phase.
	var (
		e      *installEnv
		setups []float64
	)
	defer func() {
		if e != nil {
			e.stop()
		}
	}()
	for r := 0; r < cfg.setupReps(); r++ {
		if e != nil {
			e.stop()
		}
		walDir := ""
		if durable {
			walDir = filepath.Join(cfg.work, fmt.Sprintf("wal-%d", r))
		}
		start := time.Now()
		if e, err = bootInstall(cfg, walDir, durable); err != nil {
			return nil, err
		}
		if err := e.preload(plan); err != nil {
			return nil, err
		}
		ok, err := probeFig3(func(home, src string) ([]api.Threat, error) {
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			defer cancel()
			resp, err := e.clients[0].Install(ctx, &api.InstallRequest{Home: home, Source: src})
			if err != nil {
				return nil, err
			}
			return resp.Threats, nil
		}, fmt.Sprintf("pb%d-probe", cfg.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		out.check(ok, "probe home did not report the Fig. 3 AR threat ComfortTV/r1 vs ColdDefender/r1")
	}

	// The timed window: scrapes outside it, /proc readings at its edges.
	node0, err := scrape(hc, e.node)
	if err != nil {
		return nil, err
	}
	var gw0, gw1 metricsScrape
	if e.gw != nil {
		if gw0, err = scrape(hc, e.gw); err != nil {
			return nil, err
		}
	}
	acked := make([]ackLog, len(e.clients))
	for i := range acked {
		acked[i] = ackLog{}
	}
	cpu0, err := e.sampleCPU()
	if err != nil {
		return nil, err
	}
	cpu1 := cpu0
	var segs []segment
	for s := 0; s < segments; s++ {
		homes := plan.Homes[s*len(plan.Homes)/segments : (s+1)*len(plan.Homes)/segments]
		seg := runSegment(e.clients, acked, plan, homes)
		prev := cpu1
		if cpu1, err = e.sampleCPU(); err != nil {
			return nil, err
		}
		seg.serverCPU = cpu1.node - prev.node + cpu1.gw - prev.gw
		segs = append(segs, seg)
	}
	nodeRSS, err := peakRSSMB(e.node.pid())
	if err != nil {
		return nil, err
	}
	gwRSS := 0.0
	if e.gw != nil {
		if gwRSS, err = peakRSSMB(e.gw.pid()); err != nil {
			return nil, err
		}
		if gw1, err = scrape(hc, e.gw); err != nil {
			return nil, err
		}
	}
	node1, err := scrape(hc, e.node)
	if err != nil {
		return nil, err
	}

	var all []time.Duration
	for _, seg := range segs {
		all = append(append(all, seg.writes...), seg.reads...)
		out.failed += seg.failed
	}
	gotDigest, err := serverDigest(e.clients[0], plan.Homes)
	if err != nil {
		return nil, err
	}

	// Recovery: kill -9 the node and time its reboot. On install-durable
	// the reboot replays the WAL, and every acknowledged install must
	// survive it; the gateway is stopped first so it cannot resync the
	// node from its own journal.
	e.closeClients()
	e.gw.kill()
	e.gw = nil
	var recovers []float64
	layers := &layerInputs{ops: float64(plan.Ops)}
	for r := 0; r < cfg.restartReps(durable); r++ {
		d, err := e.restartNode()
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, d.Seconds())
		if r > 0 || !durable {
			continue
		}
		cl, err := rpc.DialTimeout(e.node.rpcAddr, opDeadline)
		if err != nil {
			return nil, err
		}
		missing, err := missingAcked(cl, acked)
		cl.Close()
		if err != nil {
			return nil, err
		}
		out.check(missing == 0, "%d acknowledged installs missing after the kill -9 restart", missing)
		after, err := scrape(hc, e.node)
		if err != nil {
			return nil, err
		}
		layers.replayMs = after["homeguard_wal_recovery_seconds"] * 1000
	}
	e.stop()

	// The in-process reference: the fleet rung of the ladder, traced only
	// on the traced run.
	tr := newTracer(cfg.trace)
	f, err := preloadedFleet(plan)
	if err != nil {
		return nil, err
	}
	wantDigest, err := fleetRung(f, plan, tr)
	if err != nil {
		return nil, err
	}
	out.check(gotDigest == wantDigest, "threat-log digest %s from the servers differs from the fleet ladder's %s", gotDigest, wantDigest)
	fmt.Printf("threat-log digest %s (%d homes)\n", gotDigest, len(plan.Homes))

	out.e2e = e2eRows(setups, recovers, segs, nodeRSS+gwRSS)
	if !cfg.trace {
		return out, nil
	}

	layers.node0, layers.node1, layers.gw0, layers.gw1 = node0, node1, gw0, gw1
	layers.nodeCPU, layers.gwCPU, layers.selfCPU = cpu1.node-cpu0.node, cpu1.gw-cpu0.gw, cpu1.self-cpu0.self
	layers.gwRSS = gwRSS
	layers.clientMeanMs = mean(sortedMs(all))
	if layers.snapshotBytes, err = snapshotRung(f, tr); err != nil {
		return nil, err
	}
	if err := installLadder(cfg, plan, f, durable, tr, layers); err != nil {
		return nil, err
	}
	out.layers = layers.rows(tr)
	return out, tr.write(tracePath(cfg))
}

// installLadder runs the rungs below and above the fleet rung f has
// just run: extraction, bare detection, the RPC edge (untraced, then
// traced, for the tracing overhead) and, for install-durable, the WAL.
func installLadder(cfg config, plan *installPlan, f *fleet.Fleet, durable bool, tr *tracer, l *layerInputs) error {
	var sources []string
	for _, a := range plan.Pool {
		sources = append(sources, a.Source)
	}
	// A few passes: the pool has only about a hundred distinct sources.
	for pass := 0; pass < 3; pass++ {
		if err := extractRung(sources, tr); err != nil {
			return err
		}
	}
	if err := detectRung(plan, f.Cache(), f.Verdicts(), tr); err != nil {
		return err
	}
	homes := ladderHomes(plan)
	untraced, err := rpcRung(plan, homes, newTracer(false))
	if err != nil {
		return err
	}
	traced, err := rpcRung(plan, homes, tr)
	if err != nil {
		return err
	}
	l.overheadPct = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	if durable {
		return walRung(plan, homes, filepath.Join(cfg.work, "wal-ladder"), tr)
	}
	return nil
}

// tracePath is where the traced run writes its spans: beside the run's
// scratch directory, which is removed at exit.
func tracePath(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}
