package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/extractcache"
)

// churnBatchesPerSec is the timed 1% batches per nominal second of
// -seconds: fixed, so every run sends the same batches.
const churnBatchesPerSec = 25

// httpCall sends one JSON request with a deadline and decodes the
// response, mapping an error envelope to *api.Error. It returns the
// response body size.
func httpCall(hc *http.Client, method, url string, body, out any) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error *api.Error `json:"error"`
		}
		if json.Unmarshal(b, &env) == nil && env.Error != nil {
			return len(b), env.Error
		}
		return len(b), fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return len(b), json.Unmarshal(b, out)
}

// findingSet is a multiset of findings by their feed identity.
type findingSet map[string]int

// findingKey is a finding's identity in the feed: the app pair, kind,
// rules, property and note. The rendered text is left out because it
// names the solver's witness, which a re-solved pair may pick anew
// without the feed reporting a change.
func findingKey(f api.Finding) string {
	t := f.Threat
	return strings.Join([]string{f.App1, f.App2, t.Kind, t.Rule1, t.Rule2, t.Property, t.Note}, "\x00")
}

// apply folds one revision's delta in; it reports false when a resolved
// finding was not in the set.
func (s findingSet) apply(added, resolved []api.Finding) bool {
	ok := true
	for _, f := range resolved {
		k := findingKey(f)
		if s[k] == 0 {
			ok = false
			continue
		}
		if s[k]--; s[k] == 0 {
			delete(s, k)
		}
	}
	for _, f := range added {
		s[findingKey(f)]++
	}
	return ok
}

func (s findingSet) equal(o findingSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k, n := range s {
		if o[k] != n {
			return false
		}
	}
	return true
}

// auditApps converts wire store apps to auditor input.
func auditApps(apps []api.StoreApp) ([]audit.App, error) {
	out := make([]audit.App, len(apps))
	for i, a := range apps {
		cfg, aerr := a.Config.ToDetect()
		if aerr != nil {
			return nil, aerr
		}
		out[i] = audit.App{Name: a.Name, Source: a.Source, Config: cfg}
	}
	return out, nil
}

// fromScratch audits the final store with one Apply on a fresh Auditor.
func fromScratch(apps []api.StoreApp) (findingSet, error) {
	in, err := auditApps(apps)
	if err != nil {
		return nil, err
	}
	aud := audit.NewAuditor(audit.AuditorOptions{})
	rev, err := aud.Apply(audit.Batch{Upserts: in})
	if err != nil {
		return nil, err
	}
	if len(rev.Errors) > 0 {
		return nil, fmt.Errorf("from-scratch audit: %d apps failed", len(rev.Errors))
	}
	set := findingSet{}
	set.apply(api.FindingsOf(aud.Findings()), nil)
	return set, nil
}

// churnEnv is the booted store deployment: one in-memory node, driven
// over its HTTP edge by one client connection.
type churnEnv struct {
	node *server
	hc   *http.Client
	set  findingSet // the findings the client has seen, folded from deltas
	rev  uint64
}

func (c *churnEnv) url(path string) string { return "http://" + c.node.httpAddr + path }

// submit applies one store batch; an app the store rejects fails it.
func (c *churnEnv) submit(apps []api.StoreApp) (*api.SubmitAppsResponse, error) {
	var resp api.SubmitAppsResponse
	if _, err := httpCall(c.hc, http.MethodPost, c.url("/store/apps"), api.SubmitAppsRequest{Upserts: apps}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Errors) > 0 {
		return nil, fmt.Errorf("store batch rev %d: %d apps failed", resp.Rev, len(resp.Errors))
	}
	return &resp, nil
}

// runBatch submits one churn batch and reads the findings feed since
// the previous revision, recording both timings in seg. It reports
// whether the feed carried exactly the batch's delta.
func (c *churnEnv) runBatch(batch []api.StoreApp, seg *segment, l *layerInputs) bool {
	t := time.Now()
	resp, err := c.submit(batch)
	d := time.Since(t)
	if err != nil {
		seg.failed++
		return true
	}
	seg.writes = append(seg.writes, d)
	l.applyMs = append(l.applyMs, resp.DurationMs)

	var feed api.FindingsResponse
	t = time.Now()
	n, err := httpCall(c.hc, http.MethodGet, c.url("/store/findings?since="+strconv.FormatUint(c.rev, 10)), nil, &feed)
	d = time.Since(t)
	if err != nil {
		seg.failed++
		return true
	}
	seg.reads = append(seg.reads, d)
	l.feedBytes = append(l.feedBytes, float64(n))
	c.rev = feed.Rev
	// One revision since the last read: the feed must carry exactly the
	// batch's delta.
	return !feed.Reset && feed.Rev == resp.Rev &&
		len(feed.Added) == len(resp.Added) && len(feed.Resolved) == len(resp.Resolved) &&
		c.set.apply(feed.Added, feed.Resolved)
}

func runStoreChurn(cfg config) (*outcome, error) {
	plan := genStorePlan(cfg.seed, cfg.seconds*churnBatchesPerSec)
	out := &outcome{attempted: 2 * len(plan.Batches)}
	bin := filepath.Join(cfg.bin, "homeguardd")
	c := &churnEnv{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	defer c.hc.CloseIdleConnections()
	defer func() { c.node.kill() }()

	// Set up several times; the last deployment serves the timed phase.
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		c.node.kill()
		c.hc.CloseIdleConnections()
		start := time.Now()
		var err error
		if c.node, err = startServer("homeguardd", bin, "-node-id", "node-a"); err != nil {
			return nil, err
		}
		c.set, c.rev = findingSet{}, 0
		for i := 0; i < len(plan.Initial); i += storeChunk {
			resp, err := c.submit(plan.Initial[i:min(i+storeChunk, len(plan.Initial))])
			if err != nil {
				return nil, fmt.Errorf("store preload: %w", err)
			}
			c.set.apply(resp.Added, resp.Resolved)
			c.rev = resp.Rev
		}
		ok, err := probeFig3(func(home, src string) ([]api.Threat, error) {
			var resp api.InstallResponse
			_, err := httpCall(c.hc, http.MethodPost, c.url("/homes/"+home+"/install"), api.InstallRequest{Source: src}, &resp)
			return resp.Threats, err
		}, fmt.Sprintf("pb%d-probe", cfg.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		out.check(ok, "probe home did not report the Fig. 3 AR threat ComfortTV/r1 vs ColdDefender/r1")
	}

	hc := &http.Client{Timeout: opDeadline}
	node0, err := scrape(hc, c.node)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(c.node.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	l := &layerInputs{ops: float64(out.attempted), batches: float64(len(plan.Batches))}
	feedOK := true
	cpu1 := cpu0
	var segs []segment
	for s := 0; s < segments; s++ {
		var seg segment
		t0 := time.Now()
		for _, batch := range plan.Batches[s*len(plan.Batches)/segments : (s+1)*len(plan.Batches)/segments] {
			feedOK = c.runBatch(batch, &seg, l) && feedOK
		}
		seg.wall = time.Since(t0)
		prev := cpu1
		if cpu1, err = cpuTime(c.node.pid()); err != nil {
			return nil, err
		}
		seg.serverCPU = cpu1 - prev
		out.failed += seg.failed
		segs = append(segs, seg)
	}
	self1 := selfCPU()
	rss, err := peakRSSMB(c.node.pid())
	if err != nil {
		return nil, err
	}
	node1, err := scrape(hc, c.node)
	if err != nil {
		return nil, err
	}
	out.check(feedOK, "a findings-feed read did not carry exactly its batch's delta")

	want, err := fromScratch(plan.Final)
	if err != nil {
		return nil, err
	}
	out.check(c.set.equal(want), "final findings (%d) differ from a from-scratch audit of the final store (%d)", len(c.set), len(want))
	fmt.Printf("final findings %d, from-scratch audit %d\n", len(c.set), len(want))

	var recovers []float64
	for r := 0; r < cfg.restartReps(false); r++ {
		c.node.kill()
		start := time.Now()
		if c.node, err = startServer("homeguardd", bin, "-node-id", "node-a"); err != nil {
			return nil, err
		}
		recovers = append(recovers, time.Since(start).Seconds())
	}
	c.node.kill()

	out.e2e = e2eRows(setups, recovers, segs, rss)
	if !cfg.trace {
		return out, nil
	}

	l.node0, l.node1 = node0, node1
	l.nodeCPU, l.selfCPU = cpu1-cpu0, self1-self0
	tr := newTracer(true)
	if err := churnLadder(plan, tr, l); err != nil {
		return nil, err
	}
	out.layers = l.rows(tr)
	return out, tr.write(tracePath(cfg))
}

// churnLadder replays the store plan in-process: extraction of every
// upsert source, then the Auditor untraced and traced (the tracing
// overhead), each batch followed by the feed read and its encoding.
func churnLadder(plan *storePlan, tr *tracer, l *layerInputs) error {
	var sources []string
	for _, b := range plan.Batches {
		for _, a := range b {
			sources = append(sources, a.Source)
		}
	}
	if err := extractRung(sources, tr); err != nil {
		return err
	}
	untraced, _, err := auditRung(plan, newTracer(false))
	if err != nil {
		return err
	}
	traced, aud, err := auditRung(plan, tr)
	if err != nil {
		return err
	}
	l.overheadPct = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()

	var cw countWriter
	root := tr.begin("snapshot", -1)
	id := tr.begin("snapshot.auditor", root)
	err = aud.Snapshot(&cw)
	tr.end(id)
	tr.end(root)
	l.snapshotBytes = cw.n
	return err
}

// auditRung preloads a fresh Auditor with the initial store, then
// applies every batch with spans around the Apply, the feed read and
// the feed's wire encoding. It returns the wall time of the batches.
func auditRung(plan *storePlan, tr *tracer) (time.Duration, *audit.Auditor, error) {
	aud := audit.NewAuditor(audit.AuditorOptions{Extract: extractcache.New()})
	for i := 0; i < len(plan.Initial); i += storeChunk {
		in, err := auditApps(plan.Initial[i:min(i+storeChunk, len(plan.Initial))])
		if err != nil {
			return 0, nil, err
		}
		if _, err := aud.Apply(audit.Batch{Upserts: in}); err != nil {
			return 0, nil, err
		}
	}
	batches := make([][]audit.App, len(plan.Batches))
	for i, b := range plan.Batches {
		in, err := auditApps(b)
		if err != nil {
			return 0, nil, err
		}
		batches[i] = in
	}
	since := aud.Rev()
	start := time.Now()
	for _, in := range batches {
		id := tr.begin("audit.apply", -1)
		rev, err := aud.Apply(audit.Batch{Upserts: in})
		tr.end(id)
		if err != nil {
			return 0, nil, err
		}
		id = tr.begin("audit.findings_since", -1)
		feed := aud.FindingsSince(since)
		tr.end(id)
		id = tr.begin("feed.encode", -1)
		_, err = json.Marshal(api.FindingsResponseOf(feed))
		tr.end(id)
		if err != nil {
			return 0, nil, err
		}
		since = rev.Rev
	}
	return time.Since(start), aud, nil
}
