package rpc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/fleet"
)

// FuzzHTTPEdge drives the shared HTTP adapter with a fuzzed route (an
// index into the table's HTTP methods), path id, query and body against
// a real Service on a one-shard fleet with a store auditor. The adapter
// must not panic; every non-2xx answer must be the {"error": {...}}
// envelope under the HTTP status of its code, every 2xx answer JSON;
// and a POST body over the cap must be refused with INVALID_ARGUMENT.
//
//	go test -run '^$' -fuzz FuzzHTTPEdge -fuzztime 30s ./internal/rpc
func FuzzHTTPEdge(f *testing.F) {
	var routes []*Method
	for _, m := range Methods {
		if m.HTTP != "" {
			routes = append(routes, m)
		}
	}
	var bodies []string
	for _, app := range fuzzApps(f) {
		src, err := json.Marshal(app.Source)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies,
			`{"source":`+string(src)+`}`,
			`{"items":[{"source":`+string(src)+`},{"corpus":"NoSuchApp"}]}`,
			`{"upserts":[{"source":`+string(src)+`}],"removes":["Ghost"]}`)
	}
	bodies = append(bodies, `{"app":"ComfortTV"}`, `{"threats":[0]}`, `{"corpus":"ComfortTV"} junk`, "")
	for i := range routes {
		for _, b := range bodies {
			f.Add(uint8(i), "h1", "", []byte(b), false)
		}
		f.Add(uint8(i), "h/1", "active=true&since=1", []byte(bodies[0]), false)
		f.Add(uint8(i), "h1", "active=1&since=x", []byte(bodies[0]), true)
	}

	fl := fleet.New(fleet.Options{Shards: 1})
	svc := NewService(fl, ServiceOptions{Auditor: audit.NewAuditor(audit.AuditorOptions{Extract: fl.Cache()})})
	mux := http.NewServeMux()
	RegisterHTTP(mux, svc)
	pad := bytes.Repeat([]byte{' '}, maxFrame+1)

	f.Fuzz(func(t *testing.T, route uint8, id, query string, body []byte, overCap bool) {
		m := routes[int(route)%len(routes)]
		verb, path, _ := strings.Cut(m.HTTP, " ")
		var in io.Reader = bytes.NewReader(body)
		if overCap {
			in = io.MultiReader(in, bytes.NewReader(pad))
		}
		req, err := http.NewRequest(verb, "http://edge"+strings.Replace(path, "{id}", url.PathEscape(id), 1), in)
		if err != nil {
			return
		}
		req.URL.RawQuery = query
		if _, pattern := mux.Handler(req); pattern != m.HTTP {
			return // the mux itself answers (an id the path cleaner rewrites)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)

		if w.Code >= 200 && w.Code < 300 {
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s: %d answer is not JSON: %q", m.Name, w.Code, w.Body.String())
			}
			if overCap && verb == http.MethodPost {
				t.Fatalf("%s: body over the cap accepted with %d", m.Name, w.Code)
			}
			return
		}
		var env struct {
			Error *api.Error `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
			t.Fatalf("%s: %d answer is not the error envelope: %q (%v)", m.Name, w.Code, w.Body.String(), err)
		}
		if want := env.Error.Code.HTTPStatus(); w.Code != want {
			t.Fatalf("%s: status %d for code %s, want %d", m.Name, w.Code, env.Error.Code, want)
		}
		if overCap && verb == http.MethodPost && env.Error.Code != api.CodeInvalidArgument {
			t.Fatalf("%s: body over the cap answered %s, want INVALID_ARGUMENT", m.Name, env.Error.Code)
		}
	})
}
