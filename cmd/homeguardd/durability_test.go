package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/fleet"
	"homeguard/internal/snapcodec"
	"homeguard/internal/wal"
)

// TestMain doubles as the crash-test daemon: when re-executed with
// HOMEGUARDD_TEST_DAEMON=1 the test binary runs the real main() with
// the flags TestDaemonCrashRecovery passes, so the SIGKILL lands on the
// exact production boot/serve/recover path, not a test double.
func TestMain(m *testing.M) {
	if os.Getenv("HOMEGUARDD_TEST_DAEMON") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// newWALServer boots a server in WAL mode the way main() does: restore
// checkpoint, open log, replay, attach, ready.
func newWALServer(t *testing.T, walDir, ckptPath string) (*server, *wal.Log) {
	t.Helper()
	srv := newServer(fleet.Options{Shards: 4})
	l := bootRecover(srv, walDir, ckptPath, wal.Options{Dir: walDir, Fsync: wal.FsyncOff})
	srv.markReady()
	return srv, l
}

// TestDaemonCheckpointRecovery is the in-process warm-recovery path: a
// daemon serving fleet installs AND store batches checkpoints mid-stream,
// keeps mutating, stops without a final checkpoint (the crash shape),
// and a second daemon must recover checkpoint-plus-log into identical
// serving state — homes, threat logs, store revision and findings feed.
func TestDaemonCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(walDir, "checkpoint")

	srv, l := newWALServer(t, walDir, ckpt)
	install := func(s *server, home, app string) (int, map[string]any) {
		return doJSON(t, s, "POST", "/homes/"+home+"/install", map[string]any{"corpus": app})
	}
	for i, app := range []string{"ComfortTV", "ColdDefender", "CatchLiveShow"} {
		if code, resp := install(srv, fmt.Sprintf("h%d", i%2), app); code != http.StatusOK {
			t.Fatalf("install %s: status %d resp %v", app, code, resp)
		}
	}
	if code, resp := doJSON(t, srv, "POST", "/store/apps", map[string]any{
		"upserts": []map[string]any{{"corpus": "ComfortTV"}, {"corpus": "ColdDefender"}},
	}); code != http.StatusOK {
		t.Fatalf("store batch: status %d resp %v", code, resp)
	}
	if err := checkpoint(ckpt, l, srv.fleet, srv.auditor); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Post-checkpoint tail: replay must land exactly these on top.
	if code, resp := install(srv, "h2", "NightCare"); code != http.StatusOK {
		t.Fatalf("install NightCare: status %d resp %v", code, resp)
	}
	if code, resp := doJSON(t, srv, "POST", "/homes/h0/reconfigure", map[string]any{
		"app": "ComfortTV", "config": map[string]any{"devices": map[string]any{"tv1": "tv-9"}},
	}); code != http.StatusOK {
		t.Fatalf("reconfigure: status %d resp %v", code, resp)
	}
	if code, resp := doJSON(t, srv, "POST", "/store/apps", map[string]any{
		"removes": []string{"ColdDefender"},
	}); code != http.StatusOK {
		t.Fatalf("store remove: status %d resp %v", code, resp)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, l2 := newWALServer(t, walDir, ckpt)
	defer l2.Close()
	for _, home := range srv.fleet.HomeIDs() {
		_, want := doJSON(t, srv, "GET", "/homes/"+home+"/threats", nil)
		_, got := doJSON(t, srv2, "GET", "/homes/"+home+"/threats", nil)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("home %s threats diverged after recovery:\n got %v\nwant %v", home, got, want)
		}
		_, wantApps := doJSON(t, srv, "GET", "/homes/"+home+"/apps", nil)
		_, gotApps := doJSON(t, srv2, "GET", "/homes/"+home+"/apps", nil)
		if fmt.Sprint(wantApps) != fmt.Sprint(gotApps) {
			t.Errorf("home %s apps diverged after recovery:\n got %v\nwant %v", home, gotApps, wantApps)
		}
	}
	if w, g := srv.auditor.Rev(), srv2.auditor.Rev(); w != g {
		t.Errorf("store revision after recovery = %d, want %d", g, w)
	}
	_, wantFeed := doJSON(t, srv, "GET", "/store/findings?since=1", nil)
	_, gotFeed := doJSON(t, srv2, "GET", "/store/findings?since=1", nil)
	if fmt.Sprint(wantFeed) != fmt.Sprint(gotFeed) {
		t.Errorf("findings feed diverged after recovery:\n got %v\nwant %v", gotFeed, wantFeed)
	}

	// The recovered daemon keeps serving and logging.
	if code, resp := install(srv2, "h3", "BurglarFinder"); code != http.StatusOK {
		t.Fatalf("post-recovery install: status %d resp %v", code, resp)
	}
}

// TestGateRefusesUntilReady pins the recovery gate: while boot recovery
// runs, API traffic is refused with 503 — the UNAVAILABLE error
// envelope with a retry hint, and Retry-After — but the probes pass
// through, so orchestrators see an honest "starting" instead of
// half-replayed state.
func TestGateRefusesUntilReady(t *testing.T) {
	srv := newServer(fleet.Options{Shards: 4})
	h := srv.gate(srv.mux)
	serve := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	get := func(path string) int { return serve(path).Code }
	w := serve("/metrics")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("API during recovery: status %d, want 503", w.Code)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Errorf("API during recovery: body %q is not the error envelope (%v)", w.Body.String(), err)
	} else if env.Error.Code != api.CodeUnavailable || env.Error.RetryAfterMs != 1000 {
		t.Errorf("API during recovery: envelope %+v, want UNAVAILABLE with retryAfterMs 1000", env.Error)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("API during recovery: Retry-After %q, want 1", got)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during recovery: status %d, want 503 (from the probe, not the gate)", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz during recovery: status %d, want 200 (liveness is not readiness)", code)
	}
	srv.markReady()
	if code := get("/metrics"); code != http.StatusOK {
		t.Errorf("API after ready: status %d, want 200", code)
	}
}

// daemonProc is one re-exec'd daemon under test.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
}

func startDaemon(t *testing.T, addr, walDir string, extra ...string) *daemonProc {
	t.Helper()
	args := append([]string{
		"-addr", addr, "-rpc-addr", "",
		"-wal-dir", walDir, "-fsync", "always",
		"-checkpoint-interval", "300ms",
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOMEGUARDD_TEST_DAEMON=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	return &daemonProc{cmd: cmd, addr: addr}
}

// waitReady polls /readyz until 200, recording whether a 503 "not ready
// yet" answer was observed on the way (the listener is up before
// recovery finishes, so a slow recovery shows the flip).
func (d *daemonProc) waitReady(t *testing.T, timeout time.Duration) (saw503 bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusOK {
				return saw503
			}
			if code == http.StatusServiceUnavailable {
				saw503 = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", d.addr)
	return saw503
}

func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestDaemonCrashRecovery is the daemon-level fault injection: a real
// homeguardd process (re-exec'd via TestMain) takes an install storm
// with -fsync always, is SIGKILLed mid-storm, and a restarted daemon
// must serve every acknowledged install — zero acked operations lost,
// recovery bounded by checkpoint-plus-tail, /readyz honest throughout.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs real daemon processes")
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)
	d := startDaemon(t, addr, walDir)
	defer d.cmd.Process.Kill()
	d.waitReady(t, 10*time.Second)

	// The storm: sequential installs across many homes, rotating the demo
	// catalog. Everything the daemon answered 200 to is "acked" and must
	// survive the kill; the in-flight request the kill interrupts may
	// legally land on either side.
	apps := []string{"ComfortTV", "ColdDefender", "CatchLiveShow", "BurglarFinder", "NightCare"}
	type acked struct{ home, app string }
	var ackedOps []acked
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 60; i++ {
		home := fmt.Sprintf("home-%03d", i)
		app := apps[i%len(apps)]
		body := strings.NewReader(fmt.Sprintf(`{"corpus": %q}`, app))
		resp, err := client.Post("http://"+addr+"/homes/"+home+"/install", "application/json", body)
		if err != nil {
			break // the kill below may race the last request
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code != http.StatusOK {
			t.Fatalf("install %s into %s: status %d", app, home, code)
		}
		ackedOps = append(ackedOps, acked{home, app})
		if len(ackedOps) == 40 {
			// Mid-storm, with at least one checkpoint interval elapsed so
			// the kill lands on checkpoint + log tail, not log alone.
			break
		}
	}
	if len(ackedOps) < 40 {
		t.Fatalf("storm acked only %d installs before failing", len(ackedOps))
	}
	if err := d.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no final checkpoint
		t.Fatal(err)
	}
	d.cmd.Wait()

	// Restart on the same WAL dir: recovery must replay to exactly the
	// acked state.
	addr2 := freeAddr(t)
	d2 := startDaemon(t, addr2, walDir)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		d2.cmd.Wait()
	}()
	d2.waitReady(t, 30*time.Second)

	lost := 0
	for _, op := range ackedOps {
		resp, err := client.Get("http://" + addr2 + "/homes/" + op.home + "/apps")
		if err != nil {
			t.Fatalf("apps %s: %v", op.home, err)
		}
		var out struct {
			Apps []string `json:"apps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("apps %s: %v", op.home, err)
		}
		found := false
		for _, a := range out.Apps {
			if a == op.app {
				found = true
				break
			}
		}
		if !found {
			lost++
			t.Errorf("acked install lost: %s in %s (recovered apps %v)", op.app, op.home, out.Apps)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged installs lost after SIGKILL + recovery", lost, len(ackedOps))
	}

	// The recovered daemon serves repeat traffic entirely from restored
	// state: re-installing an acked app must be refused as a duplicate.
	body := strings.NewReader(`{"corpus": "ComfortTV"}`)
	resp, err := client.Post("http://"+addr2+"/homes/"+ackedOps[0].home+"/install", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-install of recovered app: status %d, want 409 (already installed)", resp.StatusCode)
	}
}

// TestLoadCheckpointErrors pins how boot treats what it finds at the
// checkpoint path: a missing file is a cold start at LSN 0, and a
// damaged, version-skewed or foreign file (a cache-only snapshot of the
// retired -snapshot-path-only mode among them) is a typed error, which
// bootRecover makes fatal.
func TestLoadCheckpointErrors(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ckpt := filepath.Join(walDir, "checkpoint")
	srv, l := newWALServer(t, walDir, ckpt)
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		if code, resp := doJSON(t, srv, "POST", "/homes/h1/install", map[string]any{"corpus": app}); code != http.StatusOK {
			t.Fatalf("install %s: status %d resp %v", app, code, resp)
		}
	}
	if code, resp := doJSON(t, srv, "POST", "/store/apps", map[string]any{
		"upserts": []map[string]any{{"corpus": "ComfortTV"}, {"corpus": "ColdDefender"}},
	}); code != http.StatusOK {
		t.Fatalf("store batch: status %d resp %v", code, resp)
	}
	if err := checkpoint(ckpt, l, srv.fleet, srv.auditor); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	l.Close()
	good, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint")
	fresh := newServer(fleet.Options{Shards: 4})
	if lsn, err := loadCheckpoint(path, fresh.fleet, fresh.auditor); err != nil || lsn != 0 {
		t.Errorf("missing checkpoint: lsn %d, err %v; want a cold start at lsn 0", lsn, err)
	}
	load := func(raw []byte) (uint64, error) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := newServer(fleet.Options{Shards: 4})
		return loadCheckpoint(path, fresh.fleet, fresh.auditor)
	}
	if lsn, err := load(good); err != nil || lsn == 0 {
		t.Fatalf("intact checkpoint: lsn %d, err %v", lsn, err)
	}

	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x20
	if _, err := load(flipped); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Errorf("flipped byte: %v, want ErrCorrupt", err)
	}
	// Every section is checksummed and its records decode to typed
	// errors, so a flip anywhere in the file fails typed: ErrVersion
	// where it lands on a section's version field, ErrCorrupt elsewhere.
	for i := 0; i < len(good); i += 101 {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x20
		if _, err := load(flipped); !errors.Is(err, snapcodec.ErrCorrupt) && !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("byte %d flipped: %v, want ErrCorrupt or ErrVersion", i, err)
		}
	}

	// The meta section's version is the big-endian uint32 after its magic.
	skewed := bytes.Clone(good)
	binary.BigEndian.PutUint32(skewed[8:12], ckptVersion+1)
	if _, err := load(skewed); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("version-skewed meta: %v, want ErrVersion", err)
	}
	// A v1 checkpoint carried an extraction-cache section after the meta.
	binary.BigEndian.PutUint32(skewed[8:12], 1)
	if _, err := load(skewed); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("v1 meta: %v, want ErrVersion", err)
	}
	// A v2 checkpoint carried a pair-verdict section after the meta.
	binary.BigEndian.PutUint32(skewed[8:12], 2)
	if _, err := load(skewed); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("v2 meta: %v, want ErrVersion", err)
	}
	// A v3 checkpoint's homes and store held extraction results.
	binary.BigEndian.PutUint32(skewed[8:12], 3)
	if _, err := load(skewed); !errors.Is(err, snapcodec.ErrVersion) {
		t.Errorf("v3 meta: %v, want ErrVersion", err)
	}

	var legacy bytes.Buffer
	if _, err := srv.fleet.Cache().Snapshot(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.fleet.Verdicts().Snapshot(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := load(legacy.Bytes()); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Errorf("cache-only snapshot at the checkpoint path: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotPathNeedsWALDir runs the real main(): -snapshot-path names
// the checkpoint of -wal-dir, so given alone it is a usage error.
func TestSnapshotPathNeedsWALDir(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-rpc-addr", "",
		"-snapshot-path", filepath.Join(t.TempDir(), "snapshot"))
	cmd.Env = append(os.Environ(), "HOMEGUARDD_TEST_DAEMON=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-snapshot-path without -wal-dir: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "-wal-dir") {
		t.Errorf("usage error does not name -wal-dir:\n%s", out)
	}
}
