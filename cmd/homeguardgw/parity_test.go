package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/fleet"
	"homeguard/internal/rpc"
)

// serveRPC serves h on a loopback RPC edge and returns a client of it.
func serveRPC(t testing.TB, h rpc.Handler) *rpc.Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(h, rpc.ServerOptions{})
	go srv.Serve(lis)
	c, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c
}

// edgeOutcome is one answer of an edge: the HTTP status (0 on the RPC
// edge), the error code and message ("" message on success) and the
// response body exactly as it arrived (nil on an RPC error).
type edgeOutcome struct {
	status int
	code   api.Code
	msg    string
	body   []byte
}

// TestGatewayParity runs the step list of homeguardd's
// TestTransportParity through the gateway's HTTP and RPC edges, each
// over its own pair of in-process nodes, and through one node's own
// HTTP and RPC edges. The gateway must answer every step — the
// malformed and empty bodies included — with the node's code and
// message, its HTTP response bytes and its RPC response bytes; and on
// either side the HTTP body must be the RPC body plus a newline, byte
// for byte.
func TestGatewayParity(t *testing.T) {
	newService := func() *rpc.Service {
		f := fleet.New(fleet.Options{Shards: 4})
		return rpc.NewService(f, rpc.ServiceOptions{Auditor: audit.NewAuditor(audit.AuditorOptions{Extract: f.Cache()})})
	}
	nodeMux := http.NewServeMux()
	rpc.RegisterHTTP(nodeMux, newService())
	nodeRPC := serveRPC(t, newService())
	gwHTTP := newTestRouter(t, startNode(t, "node-a"), startNode(t, "node-b"))
	gwMux := newGateway(gwHTTP, gwHTTP.obs).mux
	gwRPC := serveRPC(t, newTestRouter(t, startNode(t, "node-c"), startNode(t, "node-d")))
	ctx := context.Background()

	viaHTTP := func(mux *http.ServeMux, verb, path, body string) edgeOutcome {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(verb, path, strings.NewReader(body)))
		o := edgeOutcome{status: w.Code, code: api.CodeOK, body: w.Body.Bytes()}
		if w.Code != http.StatusOK {
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(o.body, &env); err != nil || env.Error == nil {
				t.Fatalf("%s %s: %d answer is not the error envelope: %q", verb, path, w.Code, o.body)
			}
			o.code, o.msg = env.Error.Code, env.Error.Message
		}
		return o
	}
	viaRPC := func(c *rpc.Client, m *rpc.Method, body string) edgeOutcome {
		out, err := c.CallRaw(ctx, m.Name, "", []byte(body))
		if err != nil {
			var aerr *api.Error
			if !errors.As(err, &aerr) {
				t.Fatalf("%s: non-envelope error %v", m.Name, err)
			}
			return edgeOutcome{code: aerr.Code, msg: aerr.Message}
		}
		return edgeOutcome{code: api.CodeOK, body: out}
	}
	// sameAnswer compares the HTTP and RPC answers of one setup.
	sameAnswer := func(step, who string, h, r edgeOutcome) {
		t.Helper()
		if h.code != r.code || h.msg != r.msg {
			t.Errorf("%s: %s HTTP answered %s %q, RPC %s %q", step, who, h.code, h.msg, r.code, r.msg)
			return
		}
		if h.code != api.CodeOK {
			return
		}
		if want := append(append([]byte{}, r.body...), '\n'); !bytes.Equal(h.body, want) {
			t.Errorf("%s: %s HTTP body is not the RPC body plus a newline\n  http: %q\n  rpc:  %q", step, who, h.body, r.body)
		}
	}

	steps := []struct {
		name             string
		verb, path, body string // the HTTP edge's request
		method           *rpc.Method
		rpcBody          string // the RPC edge's request body, sent as is
	}{
		{"install ComfortTV", "POST", "/homes/h1/install", `{"corpus":"ComfortTV"}`,
			rpc.MethodInstall.Method, `{"home":"h1","corpus":"ComfortTV"}`},
		{"install ColdDefender (threats)", "POST", "/homes/h1/install", `{"corpus":"ColdDefender"}`,
			rpc.MethodInstall.Method, `{"home":"h1","corpus":"ColdDefender"}`},
		{"duplicate install", "POST", "/homes/h1/install", `{"corpus":"ComfortTV"}`,
			rpc.MethodInstall.Method, `{"home":"h1","corpus":"ComfortTV"}`},
		{"unknown corpus", "POST", "/homes/h1/install", `{"corpus":"NoSuchApp"}`,
			rpc.MethodInstall.Method, `{"home":"h1","corpus":"NoSuchApp"}`},
		{"empty install body", "POST", "/homes/h1/install", `{}`,
			rpc.MethodInstall.Method, `{"home":"h1"}`},
		{"install batch", "POST", "/homes/h2/install-batch", `{"items":[{"corpus":"ComfortTV"},{"corpus":"NoSuchApp"}]}`,
			rpc.MethodInstallBatch.Method, `{"home":"h2","items":[{"corpus":"ComfortTV"},{"corpus":"NoSuchApp"}]}`},
		{"reconfigure", "POST", "/homes/h1/reconfigure", `{"app":"ColdDefender"}`,
			rpc.MethodReconfigure.Method, `{"home":"h1","app":"ColdDefender"}`},
		{"reconfigure unknown app", "POST", "/homes/h1/reconfigure", `{"app":"Ghost"}`,
			rpc.MethodReconfigure.Method, `{"home":"h1","app":"Ghost"}`},
		{"threats", "GET", "/homes/h1/threats", "",
			rpc.MethodThreats.Method, `{"home":"h1"}`},
		{"threats unknown home", "GET", "/homes/ghost/threats", "",
			rpc.MethodThreats.Method, `{"home":"ghost"}`},
		{"accept", "POST", "/homes/h1/accept", `{"threats":[0]}`,
			rpc.MethodAccept.Method, `{"home":"h1","threats":[0]}`},
		{"accept out of range", "POST", "/homes/h1/accept", `{"threats":[99]}`,
			rpc.MethodAccept.Method, `{"home":"h1","threats":[99]}`},
		{"active threats", "GET", "/homes/h1/threats?active=true", "",
			rpc.MethodThreats.Method, `{"home":"h1","active":true}`},
		{"apps", "GET", "/homes/h1/apps", "",
			rpc.MethodApps.Method, `{"home":"h1"}`},
		{"trailing data after the body", "POST", "/homes/h3/install", `{"corpus":"ComfortTV"} junk`,
			rpc.MethodInstall.Method, `{"home":"h3","corpus":"ComfortTV"} junk`},
		{"empty body", "POST", "/homes/h3/install", "",
			rpc.MethodInstall.Method, ""},
	}
	for _, s := range steps {
		nh, gh := viaHTTP(nodeMux, s.verb, s.path, s.body), viaHTTP(gwMux, s.verb, s.path, s.body)
		nr, gr := viaRPC(nodeRPC, s.method, s.rpcBody), viaRPC(gwRPC, s.method, s.rpcBody)
		if gh.status != nh.status || !bytes.Equal(gh.body, nh.body) {
			t.Errorf("%s: gateway HTTP answered %d %s, node %d %s", s.name, gh.status, gh.body, nh.status, nh.body)
		}
		if gr.code != nr.code || gr.msg != nr.msg || !bytes.Equal(gr.body, nr.body) {
			t.Errorf("%s: gateway RPC answered %s %q %s, node %s %q %s", s.name, gr.code, gr.msg, gr.body, nr.code, nr.msg, nr.body)
		}
		sameAnswer(s.name, "node", nh, nr)
		sameAnswer(s.name, "gateway", gh, gr)
	}

	// The store steps, over each side's own store. A store answer's
	// durationMs is measured, not computed, so it is zeroed before
	// comparing. Two batches make rev 2: the read since rev 1 is the
	// feed SubmitApps just encoded (relayed), the read since 0 spans both
	// revisions (rendered for the read).
	storeSteps := []struct {
		name, verb, path, body string
		method                 *rpc.Method
	}{
		{"submit apps", "POST", "/store/apps", `{"upserts":[{"corpus":"ComfortTV"},{"corpus":"ColdDefender"}]}`, rpc.MethodSubmitApps.Method},
		{"submit removes", "POST", "/store/apps", `{"removes":["ColdDefender","NoSuchApp"]}`, rpc.MethodSubmitApps.Method},
		{"findings since rev-1", "GET", "/store/findings?since=1", `{"since":1}`, rpc.MethodFindings.Method},
		{"findings since 0", "GET", "/store/findings?since=0", `{"since":0}`, rpc.MethodFindings.Method},
	}
	for _, s := range storeSteps {
		httpBody := s.body
		if s.verb == "GET" {
			httpBody = ""
		}
		nh, gh := viaHTTP(nodeMux, s.verb, s.path, httpBody), viaHTTP(gwMux, s.verb, s.path, httpBody)
		nr, gr := viaRPC(nodeRPC, s.method, s.body), viaRPC(gwRPC, s.method, s.body)
		for _, o := range []*edgeOutcome{&nh, &gh, &nr, &gr} {
			if o.code != api.CodeOK {
				t.Fatalf("%s: answered %s %q", s.name, o.code, o.msg)
			}
			o.body = maskDuration(o.body)
		}
		if !bytes.Equal(gh.body, nh.body) {
			t.Errorf("%s: gateway HTTP answered %s, node %s", s.name, gh.body, nh.body)
		}
		if !bytes.Equal(gr.body, nr.body) {
			t.Errorf("%s: gateway RPC answered %s, node %s", s.name, gr.body, nr.body)
		}
		sameAnswer(s.name, "node", nh, nr)
		sameAnswer(s.name, "gateway", gh, gr)
	}
}

// durationMs matches a store batch's measured duration, the one field
// of a store answer two runs of the same batch do not share.
var durationMs = regexp.MustCompile(`"durationMs":[-+.0-9eE]+`)

// maskDuration returns body with its durationMs value zeroed.
func maskDuration(body []byte) []byte {
	return durationMs.ReplaceAll(body, []byte(`"durationMs":0`))
}

// TestHeaderKeyBindsHome: a REQ whose header key differs from the
// body's home executes on the header key — on a node directly and
// through the gateway, which routes, journals and replays under the
// key it was given.
func TestHeaderKeyBindsHome(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	ctx := context.Background()
	ca, cb := na.dial(), nb.dial()
	installAs := func(c *rpc.Client, key, bodyHome string) {
		t.Helper()
		body := `{"home":"` + bodyHome + `","corpus":"ComfortTV"}`
		out, err := c.CallRaw(ctx, rpc.MethodInstall.Name, key, []byte(body))
		if err != nil {
			t.Fatalf("install keyed %s with body home %s: %v", key, bodyHome, err)
		}
		var resp api.InstallResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.HomeID != key {
			t.Fatalf("install keyed %s ran on home %s", key, resp.HomeID)
		}
	}
	holds := func(c *rpc.Client, home string, want int) {
		t.Helper()
		resp, err := c.Apps(ctx, home)
		if want == 0 {
			if err == nil {
				t.Fatalf("home %s exists with %v", home, resp.Apps)
			}
			return
		}
		if err != nil || len(resp.Apps) != want {
			t.Fatalf("home %s: %v %v, want %d apps", home, resp, err, want)
		}
	}

	installAs(ca, "direct-key", "direct-body")
	holds(ca, "direct-key", 1)
	holds(ca, "direct-body", 0)

	// Through the gateway, the key and the body's home live on
	// different nodes, so routing by the body would land elsewhere.
	keyHome, bodyHome := homeOwnedBy(t, r.ring, "node-b"), homeOwnedBy(t, r.ring, "node-a")
	installAs(serveRPC(t, r), keyHome, bodyHome)
	holds(cb, keyHome, 1)
	holds(ca, bodyHome, 0)
	holds(cb, bodyHome, 0)

	// The journal replays the op under the same key onto the survivor.
	nb.kill()
	markDown(r, nb)
	if apps, aerr := r.Apps(ctx, keyHome); aerr != nil || len(apps.Apps) != 1 {
		t.Fatalf("apps of %s after failover: %v %v", keyHome, apps, aerr)
	}
	holds(ca, keyHome, 1)
	holds(ca, bodyHome, 0)
}
