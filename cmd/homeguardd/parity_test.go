package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/fleet"
	"homeguard/internal/rpc"
)

// TestTransportParity drives the SAME operation sequence through the
// HTTP edge and the RPC edge (each over its own fleet) and asserts the
// two transports agree on every payload and every error: identical
// threat verdicts, identical envelope codes, and HTTP statuses that
// are exactly the envelope code's HTTPStatus mapping. This is the
// contract that lets clients switch transports without behavior drift.
func TestTransportParity(t *testing.T) {
	httpSrv := newServer(fleet.Options{Shards: 4})

	rpcBack := newServer(fleet.Options{Shards: 4})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := rpc.NewServer(rpcBack.svc, rpc.ServerOptions{})
	go edge.Serve(lis)
	defer edge.Close()
	client, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	// step runs one operation on both edges and returns the two
	// (payload, code, message) outcomes; payload is nil on error and
	// message empty on success.
	type outcome struct {
		body map[string]any
		code api.Code
		msg  string
	}
	httpOutcome := func(method, path string, status int, resp map[string]any) outcome {
		if errObj, ok := resp["error"].(map[string]any); ok {
			code := api.Code(errObj["code"].(string))
			if want := code.HTTPStatus(); status != want {
				t.Errorf("HTTP %s %s: status %d for code %s, want %d", method, path, status, code, want)
			}
			msg, _ := errObj["message"].(string)
			return outcome{code: code, msg: msg}
		}
		return outcome{body: resp, code: api.CodeOK}
	}
	viaHTTP := func(method, path string, body any) outcome {
		status, resp := doJSON(t, httpSrv, method, path, body)
		return httpOutcome(method, path, status, resp)
	}
	// viaHTTPRaw posts body verbatim.
	viaHTTPRaw := func(path, body string) outcome {
		w := httptest.NewRecorder()
		httpSrv.mux.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		var resp map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST %s: non-JSON response %q: %v", path, w.Body.String(), err)
		}
		return httpOutcome("POST", path, w.Code, resp)
	}
	viaRPC := func(resp any, err error) outcome {
		if err != nil {
			var aerr *api.Error
			if !errors.As(err, &aerr) {
				t.Fatalf("RPC returned a non-envelope error: %v", err)
			}
			return outcome{code: aerr.Code, msg: aerr.Message}
		}
		b, merr := json.Marshal(resp)
		if merr != nil {
			t.Fatal(merr)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return outcome{body: m, code: api.CodeOK}
	}
	check := func(name string, h, r outcome) {
		t.Helper()
		if h.code != r.code {
			t.Errorf("%s: HTTP code %s != RPC code %s", name, h.code, r.code)
			return
		}
		if h.msg != r.msg {
			t.Errorf("%s: HTTP message %q != RPC message %q", name, h.msg, r.msg)
		}
		if !reflect.DeepEqual(h.body, r.body) {
			hb, _ := json.Marshal(h.body)
			rb, _ := json.Marshal(r.body)
			t.Errorf("%s: payloads diverge\n  http: %s\n  rpc:  %s", name, hb, rb)
		}
	}

	steps := []struct {
		name string
		http func() outcome
		rpc  func() outcome
	}{
		{"install ComfortTV", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ComfortTV"})
		}, func() outcome {
			return viaRPC(client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}))
		}},
		{"install ColdDefender (threats)", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ColdDefender"})
		}, func() outcome {
			return viaRPC(client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ColdDefender"}))
		}},
		{"duplicate install", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "ComfortTV"})
		}, func() outcome {
			return viaRPC(client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}))
		}},
		{"unknown corpus", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{"corpus": "NoSuchApp"})
		}, func() outcome {
			return viaRPC(client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"}))
		}},
		{"empty install body", func() outcome {
			return viaHTTP("POST", "/homes/h1/install", map[string]any{})
		}, func() outcome {
			return viaRPC(client.Install(ctx, &api.InstallRequest{Home: "h1"}))
		}},
		{"install batch", func() outcome {
			return viaHTTP("POST", "/homes/h2/install-batch", map[string]any{
				"items": []map[string]any{{"corpus": "ComfortTV"}, {"corpus": "NoSuchApp"}},
			})
		}, func() outcome {
			return viaRPC(client.InstallBatch(ctx, &api.InstallBatchRequest{
				Home:  "h2",
				Items: []api.InstallItem{{Corpus: "ComfortTV"}, {Corpus: "NoSuchApp"}},
			}))
		}},
		{"reconfigure", func() outcome {
			return viaHTTP("POST", "/homes/h1/reconfigure", map[string]any{"app": "ColdDefender"})
		}, func() outcome {
			return viaRPC(client.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "ColdDefender"}))
		}},
		{"reconfigure unknown app", func() outcome {
			return viaHTTP("POST", "/homes/h1/reconfigure", map[string]any{"app": "Ghost"})
		}, func() outcome {
			return viaRPC(client.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "Ghost"}))
		}},
		{"threats", func() outcome {
			return viaHTTP("GET", "/homes/h1/threats", nil)
		}, func() outcome {
			return viaRPC(client.Threats(ctx, &api.ThreatsRequest{Home: "h1"}))
		}},
		{"threats unknown home", func() outcome {
			return viaHTTP("GET", "/homes/ghost/threats", nil)
		}, func() outcome {
			return viaRPC(client.Threats(ctx, &api.ThreatsRequest{Home: "ghost"}))
		}},
		{"accept", func() outcome {
			return viaHTTP("POST", "/homes/h1/accept", map[string]any{"threats": []int{0}})
		}, func() outcome {
			return viaRPC(client.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{0}}))
		}},
		{"accept out of range", func() outcome {
			return viaHTTP("POST", "/homes/h1/accept", map[string]any{"threats": []int{99}})
		}, func() outcome {
			return viaRPC(client.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{99}}))
		}},
		{"active threats", func() outcome {
			return viaHTTP("GET", "/homes/h1/threats?active=true", nil)
		}, func() outcome {
			return viaRPC(client.Threats(ctx, &api.ThreatsRequest{Home: "h1", Active: true}))
		}},
		{"apps", func() outcome {
			return viaHTTP("GET", "/homes/h1/apps", nil)
		}, func() outcome {
			return viaRPC(client.Apps(ctx, "h1"))
		}},
		{"trailing data after the body", func() outcome {
			return viaHTTPRaw("/homes/h3/install", `{"corpus":"ComfortTV"} junk`)
		}, func() outcome {
			return viaRPC(nil, rawRPC(t, lis.Addr().String(), rpc.MethodInstall.Name, `{"home":"h3","corpus":"ComfortTV"} junk`))
		}},
		{"empty body", func() outcome {
			return viaHTTPRaw("/homes/h3/install", "")
		}, func() outcome {
			return viaRPC(nil, rawRPC(t, lis.Addr().String(), rpc.MethodInstall.Name, ""))
		}},
	}
	for _, s := range steps {
		check(s.name, s.http(), s.rpc())
	}

	// The store steps compare bytes: the HTTP body must be the RPC body
	// plus a newline. Two batches make rev 2, so the read since rev 1 is
	// the feed SubmitApps just encoded (relayed) and the read since 0
	// spans both revisions (rendered for the read).
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
		w := httptest.NewRecorder()
		httpSrv.mux.ServeHTTP(w, httptest.NewRequest(s.verb, s.path, strings.NewReader(httpBody)))
		rpcOut, err := client.CallRaw(ctx, s.method.Name, "", []byte(s.body))
		if err != nil || w.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s, RPC error %v", s.name, w.Code, w.Body.Bytes(), err)
		}
		if h, r := maskDuration(w.Body.Bytes()), maskDuration(rpcOut); !bytes.Equal(h, append(r, '\n')) {
			t.Errorf("%s: HTTP body is not the RPC body plus a newline\n  http: %q\n  rpc:  %q", s.name, h, r)
		}
	}

	// Both fleets processed the identical sequence: their metrics agree
	// on the load-bearing counters.
	hm, rm := httpSrv.fleet.Metrics(), rpcBack.fleet.Metrics()
	if hm.Installs != rm.Installs || hm.Reconfigures != rm.Reconfigures ||
		hm.InstallConflicts != rm.InstallConflicts || !reflect.DeepEqual(hm.ThreatsByKind, rm.ThreatsByKind) {
		t.Errorf("fleet metrics diverge:\n  http: installs=%d reconf=%d conflicts=%d threats=%v\n  rpc:  installs=%d reconf=%d conflicts=%d threats=%v",
			hm.Installs, hm.Reconfigures, hm.InstallConflicts, hm.ThreatsByKind,
			rm.Installs, rm.Reconfigures, rm.InstallConflicts, rm.ThreatsByKind)
	}
}

// rawRPC sends one unary request whose body is exactly body — bytes
// rpc.Client would refuse to marshal — on a fresh connection, and
// returns the error envelope of the reply (nil for OK). The frame
// layout is the one internal/rpc documents.
func rawRPC(t *testing.T, addr, method, body string) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hdr := `{"method":"` + method + `"}`
	frame := []byte(rpc.Preface)
	frame = append(frame, 1) // REQ
	frame = binary.BigEndian.AppendUint64(frame, 1)
	frame = binary.BigEndian.AppendUint32(frame, uint32(4+len(hdr)+len(body)))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(hdr)))
	frame = append(append(frame, hdr...), body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var fh [13]byte
	if _, err := io.ReadFull(conn, fh[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(fh[9:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(payload)
	var res struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(payload[4:4+n], &res); err != nil {
		t.Fatalf("bad RES header: %v", err)
	}
	if res.Error == nil {
		return nil
	}
	return res.Error
}

// durationMs matches a store batch's measured duration, the one field
// of a store answer two runs of the same batch do not share.
var durationMs = regexp.MustCompile(`"durationMs":[-+.0-9eE]+`)

// maskDuration returns body with its durationMs value zeroed.
func maskDuration(body []byte) []byte {
	return durationMs.ReplaceAll(body, []byte(`"durationMs":0`))
}
