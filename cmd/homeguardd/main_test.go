package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/fleet"
	"homeguard/internal/obs"
	"homeguard/internal/rpc"
)

func doJSON(t *testing.T, srv *server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	srv.mux.ServeHTTP(w, req)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, path, w.Body.String(), err)
	}
	return w.Code, out
}

// TestDaemonServesMethodTable: every method of the table that has an
// HTTP route is served by the daemon's mux under that route, so no
// table route answers 404 or 405.
func TestDaemonServesMethodTable(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 1})
	for _, m := range rpc.Methods {
		if m.HTTP == "" {
			continue
		}
		verb, path, _ := strings.Cut(m.HTTP, " ")
		req := httptest.NewRequest(verb, strings.Replace(path, "{id}", "h1", 1), nil)
		if _, pattern := srv.mux.Handler(req); pattern != m.HTTP {
			t.Errorf("%s: %s %s matched %q, want %q", m.Name, verb, req.URL.Path, pattern, m.HTTP)
		}
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})

	// First install into a fresh home: no threats.
	code, resp := doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ComfortTV"})
	if code != http.StatusOK {
		t.Fatalf("install ComfortTV: status %d, resp %v", code, resp)
	}
	if app := resp["app"]; app != "ComfortTV" {
		t.Errorf("app = %v, want ComfortTV", app)
	}
	if n := len(resp["threats"].([]any)); n != 0 {
		t.Errorf("first install reported %d threats", n)
	}

	// Second install: the Fig. 3 interference appears.
	code, resp = doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ColdDefender"})
	if code != http.StatusOK {
		t.Fatalf("install ColdDefender: status %d, resp %v", code, resp)
	}
	threats := resp["threats"].([]any)
	if len(threats) == 0 {
		t.Fatal("ColdDefender install reported no threats")
	}
	first := threats[0].(map[string]any)
	for _, field := range []string{"kind", "class", "rule1", "rule2", "text"} {
		if first[field] == "" || first[field] == nil {
			t.Errorf("threat JSON missing %q: %v", field, first)
		}
	}

	// Threat log endpoint agrees, with accept-usable indices.
	code, resp = doJSON(t, srv, "GET", "/homes/h1/threats", nil)
	if code != http.StatusOK {
		t.Fatalf("threats: status %d", code)
	}
	logged := resp["threats"].([]any)
	if len(logged) != len(threats) {
		t.Errorf("GET threats = %d entries, want %d", len(logged), len(threats))
	}
	for i, raw := range logged {
		if idx := raw.(map[string]any)["index"].(float64); int(idx) != i {
			t.Errorf("threat log entry %d has index %v", i, idx)
		}
	}

	// Accept the first threat by its log index.
	code, resp = doJSON(t, srv, "POST", "/homes/h1/accept",
		map[string]any{"threats": []int{0}})
	if code != http.StatusOK {
		t.Fatalf("accept: status %d, resp %v", code, resp)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/h1/accept",
		map[string]any{"threats": []int{99}})
	if code != http.StatusBadRequest {
		t.Errorf("accept out-of-range index: status %d, want 400", code)
	}

	// Re-installing an app the home already has is a conflict, not a
	// silent duplicate.
	code, _ = doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ComfortTV"})
	if code != http.StatusConflict {
		t.Errorf("duplicate install: status %d, want 409", code)
	}

	// Reconfigure the installed app under an explicit empty config.
	code, resp = doJSON(t, srv, "POST", "/homes/h1/reconfigure",
		map[string]any{"app": "ColdDefender", "config": map[string]any{}})
	if code != http.StatusOK {
		t.Fatalf("reconfigure: status %d, resp %v", code, resp)
	}
	reThreats := resp["threats"].([]any)
	if len(reThreats) != len(threats) {
		t.Errorf("reconfigure reported %d threats, want %d", len(reThreats), len(threats))
	}
	// Reconfigure threats carry real log indices (appended after the
	// install-reported ones), so clients can accept them directly.
	for i, raw := range reThreats {
		if idx := raw.(map[string]any)["index"].(float64); int(idx) != len(threats)+i {
			t.Errorf("reconfigure threat %d has index %v, want %d", i, idx, len(threats)+i)
		}
	}

	// Apps endpoint.
	code, resp = doJSON(t, srv, "GET", "/homes/h1/apps", nil)
	if code != http.StatusOK || len(resp["apps"].([]any)) != 2 {
		t.Errorf("apps: status %d resp %v, want 2 apps", code, resp)
	}

	// Metrics reflect the work: 2 installs, 2 distinct extractions.
	code, resp = doJSON(t, srv, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if got := resp["installs"].(float64); got != 2 {
		t.Errorf("metrics installs = %v, want 2", got)
	}
	if got := resp["cacheMisses"].(float64); got != 2 {
		t.Errorf("metrics cacheMisses = %v, want 2", got)
	}
	if got := resp["homes"].(float64); got != 1 {
		t.Errorf("metrics homes = %v, want 1", got)
	}
	if _, ok := resp["cacheHitRate"]; !ok {
		t.Error("metrics missing cacheHitRate")
	}
	if _, ok := resp["installP99Ms"]; !ok {
		t.Error("metrics missing installP99Ms")
	}
	kinds := resp["threatsByKind"].(map[string]any)
	if len(kinds) == 0 {
		t.Error("metrics threatsByKind is empty after a threat-reporting install")
	}
	// Pair-verdict cache and detector-work counters are surfaced too.
	for _, key := range []string{"pairCacheLookups", "pairCacheHits", "pairCacheMisses",
		"pairCacheEntries", "pairCacheHitRate", "pairsChecked", "pairsPruned", "solverCalls"} {
		if _, ok := resp[key].(float64); !ok {
			t.Errorf("metrics missing numeric %s", key)
		}
	}
	if got, _ := resp["pairCacheLookups"].(float64); got == 0 {
		t.Error("metrics pairCacheLookups = 0 after pair-checking installs")
	}
	if got, _ := resp["solverCalls"].(float64); got == 0 {
		t.Error("metrics solverCalls = 0 after a threat-reporting install")
	}
}

// TestDaemonPrometheusExposition drives real traffic through the daemon
// and requires /metrics?format=prometheus to serve parseable exposition
// containing the stable homeguard_* catalog with sane values.
func TestDaemonPrometheusExposition(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		if code, resp := doJSON(t, srv, "POST", "/homes/h1/install",
			map[string]any{"corpus": app}); code != http.StatusOK {
			t.Fatalf("install %s: status %d resp %v", app, code, resp)
		}
	}

	req := httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	w := httptest.NewRecorder()
	srv.mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	samples, err := obs.ParseExposition(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("exposition failed to parse: %v\n%s", err, w.Body.String())
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if got := byName["homeguard_installs_total"]; got != 2 {
		t.Errorf("homeguard_installs_total = %v, want 2", got)
	}
	if got := byName["homeguard_homes"]; got != 1 {
		t.Errorf("homeguard_homes = %v, want 1", got)
	}
	if got := byName["homeguard_extract_cache_misses_total"]; got != 2 {
		t.Errorf("homeguard_extract_cache_misses_total = %v, want 2", got)
	}
	if got := byName["homeguard_install_duration_seconds_count"]; got != 2 {
		t.Errorf("homeguard_install_duration_seconds_count = %v, want 2", got)
	}
	if got := byName["homeguard_solver_calls_total"]; got == 0 {
		t.Error("homeguard_solver_calls_total = 0 after a threat-reporting install")
	}
	// The threat counter is labeled per kind; find at least one sample.
	var threatKinds int
	for _, s := range samples {
		if s.Name == "homeguard_threats_total" {
			threatKinds++
			var hasKind bool
			for _, l := range s.Labels {
				hasKind = hasKind || (l.Name == "kind" && l.Value != "")
			}
			if !hasKind {
				t.Errorf("homeguard_threats_total sample without kind label: %v", s)
			}
		}
	}
	if threatKinds == 0 {
		t.Error("no homeguard_threats_total samples after a threat-reporting install")
	}

	// JSON /metrics still serves the original shape alongside.
	if code, resp := doJSON(t, srv, "GET", "/metrics", nil); code != http.StatusOK || resp["installs"].(float64) != 2 {
		t.Errorf("JSON metrics after prometheus scrape: status %d resp %v", code, resp)
	}
}

// TestDaemonDebugRequestsAndSlowLog enables tracing, pushes installs
// through, and requires /debug/requests to serve captured span trees
// whose stages include the acceptance-criterion pipeline stages.
func TestDaemonDebugRequestsAndSlowLog(t *testing.T) {
	o := obs.NewObserver()
	o.Tracer.SetEnabled(true)
	var logBuf syncBuffer
	o.Tracer.SetLogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	o.Tracer.SetSlowThreshold(time.Nanosecond) // everything is "slow"
	srv := newServer(fleet.Options{Shards: 4, Obs: o})

	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		if code, resp := doJSON(t, srv, "POST", "/homes/h1/install",
			map[string]any{"corpus": app}); code != http.StatusOK {
			t.Fatalf("install %s: status %d resp %v", app, code, resp)
		}
	}
	if code, resp := doJSON(t, srv, "POST", "/homes/h1/reconfigure",
		map[string]any{"app": "ColdDefender", "config": map[string]any{}}); code != http.StatusOK {
		t.Fatalf("reconfigure: status %d resp %v", code, resp)
	}

	code, resp := doJSON(t, srv, "GET", "/debug/requests", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/requests: status %d", code)
	}
	if got := resp["total"].(float64); got != 3 {
		t.Errorf("capture total = %v, want 3 traced requests", got)
	}
	recent := resp["recent"].([]any)
	if len(recent) != 3 {
		t.Fatalf("capture recent has %d trees, want 3", len(recent))
	}
	// recent is newest-first: reconfigure, then the two installs.
	if name := recent[0].(map[string]any)["name"]; name != "reconfigure" {
		t.Errorf("newest capture is %v, want reconfigure", name)
	}
	// The second install (ColdDefender, shares a channel with ComfortTV)
	// must show the full pipeline: extract, detect w/ compile, solve.
	tree := recent[1].(map[string]any)
	if name := tree["name"]; name != "install" {
		t.Fatalf("capture[1] is %v, want install", name)
	}
	stages := map[string]bool{}
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		stages[n["name"].(string)] = true
		if kids, ok := n["children"].([]any); ok {
			for _, k := range kids {
				walk(k.(map[string]any))
			}
		}
	}
	walk(tree)
	for _, want := range []string{"install", "extract", "detect", "compile", "solve", "verdict"} {
		if !stages[want] {
			t.Errorf("captured install tree missing stage %q (have %v)", want, stages)
		}
	}
	if slowest := resp["slowest"].([]any); len(slowest) == 0 {
		t.Error("capture slowest is empty")
	}

	// Every request beat the 1ns threshold, so the slow log has JSON
	// records with span/duration attrs.
	logs := logBuf.String()
	if !strings.Contains(logs, `"span":"install"`) || !strings.Contains(logs, `"trace"`) {
		t.Errorf("slow log missing span/trace attrs:\n%s", logs)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: slog handlers may be
// invoked from request goroutines while the test reads the output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonHealthProbes pins the probe lifecycle: readyz is 503 until
// markReady, both probes are 200 while serving, and both flip to 503
// once a graceful drain begins.
func TestDaemonHealthProbes(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})
	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		srv.mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, strings.TrimSpace(w.Body.String())
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz before ready: status %d, want 200 (liveness != readiness)", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "starting" {
		t.Errorf("readyz before ready: status %d body %q, want 503 starting", code, body)
	}

	srv.markReady()
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz while serving: status %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ok" {
		t.Errorf("readyz while serving: status %d body %q", code, body)
	}

	srv.startDrain()
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("healthz during drain: status %d body %q, want 503 draining", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("readyz during drain: status %d body %q, want 503 draining", code, body)
	}
	// The API itself still serves while draining — Shutdown handles the
	// connection lifecycle; the probes only steer the balancer.
	if code, _ := doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ComfortTV"}); code != http.StatusOK {
		t.Errorf("install during drain: status %d, want 200", code)
	}
}

func TestDaemonBadRequests(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})

	code, _ := doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{})
	if code != http.StatusBadRequest {
		t.Errorf("install with neither source nor corpus: status %d, want 400", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"source": "x", "corpus": "y"})
	if code != http.StatusBadRequest {
		t.Errorf("install with both source and corpus: status %d, want 400", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "NoSuchApp"})
	if code != http.StatusNotFound {
		t.Errorf("install unknown corpus app: status %d, want 404", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"source": "not groovy {{{"})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("install unparseable source: status %d, want 422", code)
	}
	code, _ = doJSON(t, srv, "GET", "/homes/ghost/threats", nil)
	if code != http.StatusNotFound {
		t.Errorf("threats of unknown home: status %d, want 404", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/ghost/reconfigure",
		map[string]any{"app": "X"})
	if code != http.StatusNotFound {
		t.Errorf("reconfigure unknown home: status %d, want 404", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/h1/reconfigure", map[string]any{})
	if code != http.StatusBadRequest {
		t.Errorf("reconfigure without app: status %d, want 400", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/ghost/accept", map[string]any{"threats": []int{0}})
	if code != http.StatusNotFound {
		t.Errorf("accept in unknown home: status %d, want 404", code)
	}
	code, _ = doJSON(t, srv, "POST", "/homes/ghost/accept", map[string]any{})
	if code != http.StatusBadRequest {
		t.Errorf("accept without indices: status %d, want 400", code)
	}
	// Config values must be string/number/bool.
	code, _ = doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{
		"corpus": "ComfortTV",
		"config": map[string]any{"values": map[string]any{"x": []any{1}}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("install with bad config value type: status %d, want 400", code)
	}
	// Non-integral numbers are rejected rather than silently truncated.
	code, resp := doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{
		"corpus": "ComfortTV",
		"config": map[string]any{"values": map[string]any{"threshold1": 72.5}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("install with non-integral value: status %d resp %v, want 400", code, resp)
	}
	// Integral but beyond int64: rejected, not silently wrapped.
	code, resp = doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{
		"corpus": "ComfortTV",
		"config": map[string]any{"values": map[string]any{"threshold1": 1e300}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("install with overflowing value: status %d resp %v, want 400", code, resp)
	}
}

func TestDaemonConfigParsing(t *testing.T) {
	cj := &api.Config{
		Devices:     map[string]string{"tv1": "dev-1"},
		Values:      map[string]any{"threshold1": float64(30), "name": "x", "on": true},
		ValueLists:  map[string][]string{"modes": {"Home", "Away"}},
		DeviceTypes: map[string]string{"sw": "heater"},
	}
	cfg, aerr := cj.ToDetect()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if cfg.Devices["tv1"] != "dev-1" {
		t.Errorf("device binding lost: %v", cfg.Devices)
	}
	if len(cfg.Values) != 3 || len(cfg.ValueLists["modes"]) != 2 {
		t.Errorf("values lost: %v %v", cfg.Values, cfg.ValueLists)
	}
	if string(cfg.DeviceTypes["sw"]) != "heater" {
		t.Errorf("device type lost: %v", cfg.DeviceTypes)
	}
	var nilCfg *api.Config
	if got, aerr := nilCfg.ToDetect(); aerr != nil || got != nil {
		t.Errorf("nil config → (%v, %v), want (nil, nil)", got, aerr)
	}
}

// TestDaemonReconfigureUnknownApp404 is the regression test for the typed
// not-found mapping: reconfiguring an app absent from an EXISTING home
// must answer 404 (fleet.ErrAppNotInstalled), not a generic 422.
func TestDaemonReconfigureUnknownApp404(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})
	code, _ := doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{"corpus": "ComfortTV"})
	if code != http.StatusOK {
		t.Fatalf("install: status %d", code)
	}
	code, resp := doJSON(t, srv, "POST", "/homes/h1/reconfigure",
		map[string]any{"app": "NoSuchApp"})
	if code != http.StatusNotFound {
		t.Errorf("reconfigure unknown app: status %d resp %v, want 404", code, resp)
	}
}

// TestDaemonActiveThreatsView: ?active=true serves the incremental
// ledger — after a resolving reconfigure the active set is empty while
// the plain log keeps history.
func TestDaemonActiveThreatsView(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})
	sharedCfg := map[string]any{"devices": map[string]any{"tv1": "tv-A", "window1": "win-1"}}
	code, _ := doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ComfortTV", "config": sharedCfg})
	if code != http.StatusOK {
		t.Fatalf("install ComfortTV: status %d", code)
	}
	code, resp := doJSON(t, srv, "POST", "/homes/h1/install",
		map[string]any{"corpus": "ColdDefender", "config": sharedCfg})
	if code != http.StatusOK || len(resp["threats"].([]any)) == 0 {
		t.Fatalf("install ColdDefender: status %d, threats %v", code, resp["threats"])
	}
	nThreats := len(resp["threats"].([]any))

	code, resp = doJSON(t, srv, "GET", "/homes/h1/threats?active=true", nil)
	if code != http.StatusOK {
		t.Fatalf("active threats: status %d", code)
	}
	if n := len(resp["threats"].([]any)); n != nThreats {
		t.Errorf("active view has %d threats, want %d", n, nThreats)
	}

	// Rebind ColdDefender away from the shared window: the actuator race
	// resolves (a cross-device goal conflict may remain — the active view
	// must mirror exactly what the reconfigure reported).
	code, resp = doJSON(t, srv, "POST", "/homes/h1/reconfigure", map[string]any{
		"app":    "ColdDefender",
		"config": map[string]any{"devices": map[string]any{"tv1": "tv-A", "window1": "win-ELSEWHERE"}},
	})
	if code != http.StatusOK {
		t.Fatalf("reconfigure: status %d", code)
	}
	kindsOf := func(list []any) map[string]int {
		out := map[string]int{}
		for _, x := range list {
			out[x.(map[string]any)["kind"].(string)]++
		}
		return out
	}
	reKinds := kindsOf(resp["threats"].([]any))
	if reKinds["AR"] != 0 {
		t.Errorf("actuator race survived the rebinding: %v", reKinds)
	}
	code, resp = doJSON(t, srv, "GET", "/homes/h1/threats?active=1", nil)
	if code != http.StatusOK {
		t.Fatalf("active threats: status %d", code)
	}
	if got := kindsOf(resp["threats"].([]any)); fmt.Sprint(got) != fmt.Sprint(reKinds) {
		t.Errorf("active view = %v, want the reconfigure verdict %v", got, reKinds)
	}
	code, resp = doJSON(t, srv, "GET", "/homes/h1/threats", nil)
	if code != http.StatusOK || len(resp["threats"].([]any)) < nThreats {
		t.Errorf("history log lost entries: %v", resp["threats"])
	}
}

// TestDaemonSnapshotWarmBoot is the daemon-level warm-start exercise the
// CI snapshot job runs: populate a WAL-mode daemon over the API, write a
// checkpoint, boot a fresh daemon from checkpoint plus log, and require
// the repeat install storm to be served entirely warm — an
// extraction-cache hit ratio of at least 0.99 and zero new symbolic
// executions or pair-verdict misses (the restore itself solves each
// pair the homes hold once, which is where the verdict cache warms).
func TestDaemonSnapshotWarmBoot(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ckpt := filepath.Join(walDir, "checkpoint")

	apps := []string{"ComfortTV", "ColdDefender", "MakeItSo", "AutoLockDoor", "EnergySaver"}
	warm, l := newWALServer(t, walDir, ckpt)
	for _, app := range apps {
		code, resp := doJSON(t, warm, "POST", "/homes/h1/install", map[string]any{"corpus": app})
		if code != http.StatusOK {
			t.Fatalf("install %s: status %d resp %v", app, code, resp)
		}
	}
	if err := checkpoint(ckpt, l, warm.fleet, warm.auditor); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp checkpoint file left behind")
	}
	l.Close()

	cold, l := newWALServer(t, walDir, ckpt)
	before := cold.fleet.Metrics()
	if before.Cache.Lookups != 0 {
		t.Fatalf("restore counted %d cache lookups; restores must not skew hit ratios", before.Cache.Lookups)
	}

	// The repeat install storm: same catalog, different homes.
	for i, app := range apps {
		home := fmt.Sprintf("/homes/h%d/install", 100+i)
		code, resp := doJSON(t, cold, "POST", home, map[string]any{"corpus": app})
		if code != http.StatusOK {
			t.Fatalf("warm install %s: status %d resp %v", app, code, resp)
		}
	}
	m := cold.fleet.Metrics()
	if m.Cache.Misses != 0 {
		t.Errorf("warm boot ran %d extractions, want 0", m.Cache.Misses)
	}
	if hr := m.Cache.HitRate(); hr < 0.99 {
		t.Errorf("warm-boot extraction hit ratio = %.3f, want >= 0.99", hr)
	}
	if n := m.PairVerdicts.Misses - before.PairVerdicts.Misses; n != 0 {
		t.Errorf("repeat storm solved %d pair verdicts, want 0 (all solved by the restore)", n)
	}

	// A second checkpoint and boot cycle from the restored daemon stays warm.
	if err := checkpoint(ckpt, l, cold.fleet, cold.auditor); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	l.Close()
	again, l := newWALServer(t, walDir, ckpt)
	defer l.Close()
	code, resp := doJSON(t, again, "POST", "/homes/z/install", map[string]any{"corpus": "ComfortTV"})
	if code != http.StatusOK {
		t.Fatalf("install after second boot: status %d resp %v", code, resp)
	}
	if m := again.fleet.Metrics(); m.Cache.Misses != 0 {
		t.Errorf("second warm boot ran %d extractions, want 0", m.Cache.Misses)
	}
}
