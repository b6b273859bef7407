package rpc

import (
	"bytes"
	"context"
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

// edgeBodies is the request bodies FuzzHTTPEdge and FuzzRouteKey start
// from: the Fig. 3 apps as install, batch and store bodies, the other
// methods' bodies, trailing data and an empty body.
func edgeBodies(f *testing.F) []string {
	f.Helper()
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
	return append(bodies, `{"app":"ComfortTV"}`, `{"threats":[0]}`, `{"corpus":"ComfortTV"} junk`, "")
}

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
	bodies := edgeBodies(f)
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

// FuzzRouteKey checks the gateway's key-only decode against the full
// one: for every method scoped to a home and any body the full decode
// accepts, KeyOf must return the home that decode binds; when both
// reject a body, they must fail with the same error. (KeyOf may accept
// a body whose other fields the full decode rejects: the node answers
// that.)
//
//	go test -run '^$' -fuzz FuzzRouteKey -fuzztime 30s ./internal/rpc
func FuzzRouteKey(f *testing.F) {
	var scoped []*Method
	for _, m := range Methods {
		if m.home != nil {
			scoped = append(scoped, m)
		}
	}
	bodies := edgeBodies(f)
	bodies = append(bodies, `{"home":"h1","corpus":"ComfortTV"}`, `{"Home":"a","hOME":"b"}`, `{"home":7}`, `{"home":"h","items":5}`, `null`, `[]`,
		`{"home":"a","home":null}`, `{"x":{"home":"n"},"home":"t"}`, `{"x":"\"home\":\"n\"","home":"t"}`,
		`{"home":"a\u0062"}`, ` {"home" : "s" } `, `{"n":-1.5e+3,"l":[true,null,{}],"home":"t"}`)
	for i := range scoped {
		for _, b := range bodies {
			f.Add(uint8(i), []byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, method uint8, body []byte) {
		m := scoped[int(method)%len(scoped)]
		key, kerr := m.KeyOf(body)
		req := m.newRequest()
		if aerr := decodeBody(body, req); aerr != nil {
			if kerr != nil && (kerr.Code != aerr.Code || kerr.Message != aerr.Message) {
				t.Fatalf("%s: body %q: KeyOf failed with %v, the full decode with %v", m.Name, body, kerr, aerr)
			}
			return
		}
		if kerr != nil || key != m.Key(req) {
			t.Fatalf("%s: body %q: KeyOf gave %q, %v; the full decode binds %q", m.Name, body, key, kerr, m.Key(req))
		}
	})
}

// TestRespondBodyMatchesWriteJSON: an HTTP answer written from a body
// already marshaled is that body plus a newline, byte for byte — the
// HTTP edge relays what the RPC edge sends as its RES body — and is
// what WriteJSON writes for the value, HTML-escaped characters and
// non-ASCII text included.
func TestRespondBodyMatchesWriteJSON(t *testing.T) {
	svc := NewService(fleet.New(fleet.Options{Shards: 1}), ServiceOptions{})
	var res *api.InstallResponse
	for _, app := range []string{"ComfortTV", "ColdDefender"} {
		var aerr *api.Error
		if res, aerr = svc.Install(context.Background(), &api.InstallRequest{Home: "h", Corpus: app}); aerr != nil {
			t.Fatal(aerr)
		}
	}
	for _, v := range []any{res, map[string]any{"a<b>&c": "ü\u2028", "n": []int{}}, &api.AppsResponse{HomeID: "h"}} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte{}, body...), '\n')
		enc, got := httptest.NewRecorder(), httptest.NewRecorder()
		WriteJSON(enc, http.StatusOK, v)
		respondBody(got, body, nil)
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" ||
			!bytes.Equal(got.Body.Bytes(), want) {
			t.Errorf("respondBody wrote %d %q, want 200 %q", got.Code, got.Body.String(), want)
		}
		if enc.Code != got.Code || enc.Header().Get("Content-Type") != got.Header().Get("Content-Type") ||
			!bytes.Equal(enc.Body.Bytes(), got.Body.Bytes()) {
			t.Errorf("WriteJSON wrote %d %q, respondBody %d %q", enc.Code, enc.Body.String(), got.Code, got.Body.String())
		}
	}
}
