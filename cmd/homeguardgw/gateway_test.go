package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"homeguard/internal/cluster"
	"homeguard/internal/rpc"
)

// TestGatewayHTTPEdge drives the daemon-compatible HTTP surface plus
// the cluster admin endpoints through the real mux.
func TestGatewayHTTPEdge(t *testing.T) {
	na, nb := startNode(t, "node-a"), startNode(t, "node-b")
	r := newTestRouter(t, na, nb)
	g := newGateway(r, r.obs)
	ts := httptest.NewServer(g.mux)
	defer ts.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response, into any) {
		t.Helper()
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}

	// Same contract as the daemon edge: install, then read back.
	resp := post("/homes/h1/install", map[string]string{"corpus": "ComfortTV"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install status %d", resp.StatusCode)
	}
	var inst struct {
		HomeID string `json:"homeId"`
		App    string `json:"app"`
	}
	decode(resp, &inst)
	if inst.HomeID != "h1" || inst.App == "" {
		t.Fatalf("install response %+v", inst)
	}
	var threats struct {
		HomeID string `json:"homeId"`
	}
	decode(get("/homes/h1/threats"), &threats)
	if threats.HomeID != "h1" {
		t.Fatalf("threats response %+v", threats)
	}

	// Unknown home maps the api error envelope to its HTTP status.
	if resp := get("/homes/ghost/apps"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown home status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Cluster admin view.
	var st clusterStatus
	decode(get("/cluster"), &st)
	if st.RingVersion == "" || len(st.Nodes) != 2 {
		t.Fatalf("cluster status %+v", st)
	}
	for _, n := range st.Nodes {
		if !n.Up || n.Breaker != "closed" {
			t.Fatalf("node %s up=%v breaker=%s at boot", n.ID, n.Up, n.Breaker)
		}
	}

	// Planned migration over HTTP, then the pin shows in /cluster.
	resp = post("/admin/migrate", map[string]string{"home": "h1", "to": otherNode(t, r, "h1")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d", resp.StatusCode)
	}
	resp.Body.Close()
	decode(get("/cluster"), &st)
	if len(st.Pins) != 1 {
		t.Fatalf("pins after migrate: %+v", st.Pins)
	}
	if resp := post("/admin/migrate", map[string]string{"home": "h1"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("migrate without target: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Prometheus exposition carries the cluster series.
	promResp := get("/metrics?format=prometheus")
	var sb strings.Builder
	if _, err := sb.WriteString(readAll(t, promResp)); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, series := range []string{
		"homeguard_cluster_ring_version",
		"homeguard_cluster_nodes_up 2",
		`homeguard_cluster_node_up{node="node-a"} 1`,
		"homeguard_cluster_migrations_total 1",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("prometheus exposition missing %q", series)
		}
	}

	// Readiness follows fleet health: all nodes down = 503.
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d with a live fleet", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	markDown(r, na)
	markDown(r, nb)
	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with the fleet down, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestGatewayServesMethodTable: every method of the table that has an
// HTTP route is served by the gateway's mux under that route, so no
// table route answers 404 or 405.
func TestGatewayServesMethodTable(t *testing.T) {
	r := newTestRouter(t, startNode(t, "node-a"))
	g := newGateway(r, r.obs)
	for _, m := range rpc.Methods {
		if m.HTTP == "" {
			continue
		}
		verb, path, _ := strings.Cut(m.HTTP, " ")
		req := httptest.NewRequest(verb, strings.Replace(path, "{id}", "h1", 1), nil)
		if _, pattern := g.mux.Handler(req); pattern != m.HTTP {
			t.Errorf("%s: %s %s matched %q, want %q", m.Name, verb, req.URL.Path, pattern, m.HTTP)
		}
	}
}

// otherNode names the node h does NOT currently route to.
func otherNode(t *testing.T, r *router, home string) string {
	t.Helper()
	n, aerr := r.route(home)
	if aerr != nil {
		t.Fatal(aerr)
	}
	for _, m := range r.ring.Nodes() {
		if m.ID != n.ID {
			return m.ID
		}
	}
	t.Fatal("single-node ring")
	return ""
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestParseNodes pins the -nodes flag grammar.
func TestParseNodes(t *testing.T) {
	nodes, err := parseNodes("a=1.2.3.4:81, b=1.2.3.4:82")
	if err != nil || len(nodes) != 2 || nodes[0].ID != "a" || nodes[1].Addr != "1.2.3.4:82" {
		t.Fatalf("parseNodes: %v %v", nodes, err)
	}
	for _, bad := range []string{"", "a", "a=", "=x", "a=1,b"} {
		if _, err := parseNodes(bad); err == nil {
			t.Errorf("parseNodes(%q) accepted", bad)
		}
	}
	// Duplicate IDs are the ring's job to reject.
	dup, err := parseNodes("a=x:1,a=y:2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewRing(dup, 0); err == nil {
		t.Error("ring accepted duplicate node IDs")
	}
}
