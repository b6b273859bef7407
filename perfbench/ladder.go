package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/fleet"
	"homeguard/internal/groovy"
	"homeguard/internal/pairverdict"
	"homeguard/internal/rpc"
	"homeguard/internal/symexec"
	"homeguard/internal/wal"
)

// The ladder replays a workload's generated inputs in-process, one
// layer's public Go API per rung, with spans from this package around
// every call. A layer's cost is its rung's span time; where the
// benchmark's calls nest (an extraction's parse, the service call under
// an RPC), a span's self time excludes its children.

// tracer records spans in memory; they are written out at the end. A
// disabled tracer records nothing, which is how the untraced pass of the
// overhead measurement runs the very same code.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex // the RPC rung records from the server goroutine too
	spans []span
}

type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the parent span; -1 for a root
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id,
// or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

// end closes span id; a no-op for -1.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	n           int
	total, self time.Duration
}

// layerTimes aggregates spans by name. A span's self time is its
// duration minus that of its children; children of one span never
// overlap, because every rung calls its layers one at a time.
func (t *tracer) layerTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += time.Duration(s.EndNs - s.StartNs)
		lt.self += time.Duration(s.EndNs - s.StartNs - children[i])
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeThreats feeds one home's threat log into a digest.
func writeThreats(w io.Writer, home int, ts []api.Threat) {
	fmt.Fprintf(w, "home %d: %d threats\n", home, len(ts))
	for _, t := range ts {
		b, _ := json.Marshal(t) // a struct of strings and ints always marshals
		w.Write(append(b, '\n'))
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// preloadedFleet is an in-process fleet after the workload's preload.
func preloadedFleet(plan *installPlan) (*fleet.Fleet, error) {
	f := fleet.New(fleet.Options{})
	for _, h := range plan.Preload {
		items := make([]fleet.BatchItem, len(h.Apps))
		for i, a := range h.Apps {
			items[i] = fleet.BatchItem{Source: plan.Pool[a].Source}
		}
		for _, r := range f.InstallBatch(context.Background(), h.ID, items) {
			if r.Err != nil {
				return nil, fmt.Errorf("preload %s: %w", h.ID, r.Err)
			}
		}
	}
	return f, nil
}

// fleetRung replays every timed operation through the Fleet API and
// returns the digest of the resulting threat logs: the reference the
// servers' logs must equal.
func fleetRung(f *fleet.Fleet, plan *installPlan, tr *tracer) (string, error) {
	ctx := context.Background()
	for _, h := range plan.Homes {
		for _, o := range h.Ops {
			var err error
			switch o.Kind {
			case opInstall:
				id := tr.begin("fleet.install", -1)
				_, err = f.Install(ctx, h.ID, plan.Pool[o.App].Source, nil)
				tr.end(id)
			case opReconfigure:
				id := tr.begin("fleet.reconfigure", -1)
				_, err = f.Reconfigure(ctx, h.ID, plan.Pool[o.App].Name, nil)
				tr.end(id)
			default:
				id := tr.begin("fleet.threats", -1)
				_, err = f.Threats(h.ID)
				tr.end(id)
			}
			if err != nil {
				return "", fmt.Errorf("fleet rung, home %s: %w", h.ID, err)
			}
		}
	}
	d := sha256.New()
	for i, h := range plan.Homes {
		ts, err := f.Threats(h.ID)
		if err != nil {
			return "", fmt.Errorf("fleet rung, home %s: %w", h.ID, err)
		}
		writeThreats(d, i, api.ThreatsOf(ts, 0))
	}
	return hexSum(d), nil
}

// snapshotRung times what a checkpoint serializes: every home plus both
// caches, encoded to a byte counter. It returns the bytes written.
func snapshotRung(f *fleet.Fleet, tr *tracer) (int64, error) {
	var cw countWriter
	root := tr.begin("snapshot", -1)
	defer tr.end(root)
	id := tr.begin("snapshot.homes", root)
	_, err := f.SnapshotHomes(&cw)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("snapshot.extractcache", root)
	_, err = f.Cache().Snapshot(&cw)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("snapshot.verdicts", root)
	_, err = f.Verdicts().Snapshot(&cw)
	tr.end(id)
	return cw.n, err
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// extractRung parses and extracts each source: the Groovy front end and
// the symbolic executor as two spans under one root.
func extractRung(sources []string, tr *tracer) error {
	for _, src := range sources {
		root := tr.begin("app.extract", -1)
		id := tr.begin("groovy.parse", root)
		script, err := groovy.Parse(src)
		tr.end(id)
		if err == nil {
			id = tr.begin("symexec.extract", root)
			_, err = symexec.ExtractScript(script, "", symexec.Limits{})
			tr.end(id)
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("extract rung: %w", err)
		}
	}
	return nil
}

// detectRung installs every timed home's apps into a bare per-home
// detector sharing the warm verdict cache: detection without the fleet.
func detectRung(plan *installPlan, cache *extractcache.Cache, verdicts *pairverdict.Cache, tr *tracer) error {
	res := make([]*symexec.Result, len(plan.Pool))
	for i, a := range plan.Pool {
		r, err := cache.Extract(a.Source, "")
		if err != nil {
			return fmt.Errorf("detect rung: %w", err)
		}
		res[i] = r
	}
	for _, h := range plan.Homes {
		d := detect.New(detect.Options{Verdicts: verdicts})
		for _, o := range h.Ops {
			if o.Kind != opInstall {
				continue
			}
			app := detect.NewInstalledApp(res[o.App], nil)
			id := tr.begin("detect.install", -1)
			d.Install(app)
			tr.end(id)
		}
	}
	return nil
}

// tracedService wraps the service core so the server-side call nests
// under the client span that caused it: the RPC span's self time is the
// edge's own cost (encode, loopback, decode, dispatch).
type tracedService struct {
	*rpc.Service
	tr     *tracer
	parent atomic.Int64 // client span of the call in flight; the rung sends one at a time
}

func (s *tracedService) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	id := s.tr.begin("service.install", int(s.parent.Load()))
	defer s.tr.end(id)
	return s.Service.Install(ctx, req)
}

func (s *tracedService) Reconfigure(ctx context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error) {
	id := s.tr.begin("service.reconfigure", int(s.parent.Load()))
	defer s.tr.end(id)
	return s.Service.Reconfigure(ctx, req)
}

func (s *tracedService) Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	id := s.tr.begin("service.threats", int(s.parent.Load()))
	defer s.tr.end(id)
	return s.Service.Threats(ctx, req)
}

// rpcRung serves a fresh preloaded fleet over the RPC edge on loopback,
// in-process, and sends the first homes' operations through one client.
// It returns the wall time of the timed operations.
func rpcRung(plan *installPlan, homes []homePlan, tr *tracer) (time.Duration, error) {
	svc := &tracedService{Service: rpc.NewService(fleet.New(fleet.Options{}), rpc.ServiceOptions{}), tr: tr}
	srv := rpc.NewServer(svc, rpc.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cl, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		return 0, err
	}
	defer cl.Close()

	call := func(name string, fn func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		id := tr.begin(name, -1)
		svc.parent.Store(int64(id))
		err := fn(ctx)
		tr.end(id)
		return err
	}
	for _, h := range plan.Preload {
		if err := call("rpc.preload", func(ctx context.Context) error {
			_, err := cl.InstallBatch(ctx, &api.InstallBatchRequest{Home: h.ID, Items: plan.installItems(h)})
			return err
		}); err != nil {
			return 0, fmt.Errorf("rpc rung preload: %w", err)
		}
	}
	start := time.Now()
	for _, h := range homes {
		for _, o := range h.Ops {
			var err error
			switch o.Kind {
			case opInstall:
				err = call("rpc.install", func(ctx context.Context) error {
					_, err := cl.Install(ctx, &api.InstallRequest{Home: h.ID, Source: plan.Pool[o.App].Source})
					return err
				})
			case opReconfigure:
				err = call("rpc.reconfigure", func(ctx context.Context) error {
					_, err := cl.Reconfigure(ctx, &api.ReconfigureRequest{Home: h.ID, App: plan.Pool[o.App].Name})
					return err
				})
			default:
				err = call("rpc.threats", func(ctx context.Context) error {
					_, err := cl.Threats(ctx, &api.ThreatsRequest{Home: h.ID})
					return err
				})
			}
			if err != nil {
				return 0, fmt.Errorf("rpc rung, home %s: %w", h.ID, err)
			}
		}
	}
	return time.Since(start), nil
}

// walRung installs the first homes' apps into a preloaded fleet that
// logs every install to a WAL in dir with fsync always, the
// install-durable policy. Its gap to the fleet rung is the WAL's cost.
func walRung(plan *installPlan, homes []homePlan, dir string, tr *tracer) (err error) {
	f, err := preloadedFleet(plan)
	if err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	f.AttachWAL(l)
	for _, h := range homes {
		for _, o := range h.Ops {
			if o.Kind != opInstall {
				continue
			}
			id := tr.begin("fleet.install_wal", -1)
			_, err := f.Install(context.Background(), h.ID, plan.Pool[o.App].Source, nil)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("wal rung, home %s: %w", h.ID, err)
			}
		}
	}
	return nil
}

// ladderHomes is the share of timed homes the RPC and WAL rungs replay:
// enough operations for stable means at a fraction of the serial cost.
func ladderHomes(plan *installPlan) []homePlan {
	n := len(plan.Homes) / 4
	if n < 1 {
		n = 1
	}
	return plan.Homes[:n]
}
