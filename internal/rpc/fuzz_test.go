package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
)

// eofConn is the server end of a net.Pipe whose reads come from r: the
// server sees the fuzz input and then a clean EOF, while everything it
// writes still goes through the pipe to the test.
type eofConn struct {
	net.Conn
	r io.Reader
}

func (c eofConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// fuzzReq marshals v as the body of a REQ envelope for method.
func fuzzReq(f *testing.F, id uint64, method string, v any) []byte {
	f.Helper()
	hdr, err := json.Marshal(reqHeader{Method: method})
	if err != nil {
		f.Fatal(err)
	}
	var body []byte
	if v != nil {
		if body, err = json.Marshal(v); err != nil {
			f.Fatal(err)
		}
	}
	return rawFrame(frameReq, id, envelope(string(hdr), string(body)))
}

// fuzzApps is the corpus apps the seeds carry: the Fig. 3 pair, whose
// second install reports threats.
func fuzzApps(f *testing.F) []corpus.App {
	f.Helper()
	var apps []corpus.App
	for _, name := range []string{"ComfortTV", "ColdDefender"} {
		app, ok := corpus.Get(name)
		if !ok {
			f.Fatalf("corpus app %s missing", name)
		}
		apps = append(apps, app)
	}
	return apps
}

// FuzzServerFrames writes the preface and then arbitrary bytes to one
// server connection. The connection must wind down once the input
// ends (no panic, no hang), and every frame the server writes must be
// a well-formed RES envelope. The server answers exactly the REQ
// frames in front of the first frame it cannot take — a MSG (2) or EOS
// (3) of the retired streams, any other type, an oversized or a
// truncated frame — and drops the connection there, dispatching
// nothing after it. A first frame that is a REQ with a malformed
// envelope must be answered with INVALID_ARGUMENT.
//
//	go test -run '^$' -fuzz FuzzServerFrames -fuzztime 30s ./internal/rpc
func FuzzServerFrames(f *testing.F) {
	apps := fuzzApps(f)
	install := func(id uint64, home string, app corpus.App) []byte {
		return fuzzReq(f, id, "Install", &api.InstallRequest{Home: home, Source: app.Source})
	}
	apps1 := func(id uint64) []byte { return fuzzReq(f, id, "Apps", &api.AppsRequest{Home: "h"}) }
	seeds := [][]byte{
		bytes.Join([][]byte{install(1, "h", apps[0]), install(2, "h", apps[1]), fuzzReq(f, 3, "Threats", &api.ThreatsRequest{Home: "h"})}, nil),
		bytes.Join([][]byte{install(1, "s", apps[0]), rawFrame(2, 1, []byte(`{"home":"s"}`)), apps1(2)}, nil),
		fuzzReq(f, 1, "InstallBatch", &api.InstallBatchRequest{Home: "b", Items: []api.InstallItem{{Source: apps[0].Source}, {Source: apps[1].Source}}}),
		rawFrame(frameReq, 1, append([]byte{0, 0, 1, 0}, `{"method":"Apps"}`...)),
		rawFrame(frameReq, 1, []byte(`{"method":"Apps","body":{"home":"h"}}`)),
		bytes.Join([][]byte{apps1(1), rawFrame(3, 1, nil), apps1(2)}, nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := NewServer(NewService(fleet.New(fleet.Options{Shards: 1}), ServiceOptions{}), ServerOptions{})
	f.Fuzz(func(t *testing.T, in []byte) {
		cEnd, sEnd := net.Pipe()
		defer cEnd.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handleConn(eofConn{Conn: sEnd, r: io.MultiReader(bytes.NewReader([]byte(Preface)), bytes.NewReader(in))})
		}()
		res := make(chan map[uint64][]api.Code, 1)
		go func() {
			codes := map[uint64][]api.Code{}
			defer func() { res <- codes }()
			br := bufio.NewReader(cEnd)
			for {
				fr, err := readFrame(br)
				if err != nil {
					return
				}
				if fr.typ != frameRes {
					t.Errorf("server wrote a frame of type %d", fr.typ)
					continue
				}
				var hdr resHeader
				if _, err := decodeEnvelope(fr.payload, &hdr); err != nil {
					t.Errorf("server wrote a malformed RES: %v", err)
					continue
				}
				code := api.CodeOK
				if hdr.Error != nil {
					code = hdr.Error.Code
				} else if hdr.Status != 0 {
					t.Errorf("RES status %d without an error envelope", hdr.Status)
				}
				codes[fr.id] = append(codes[fr.id], code)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server connection still running 10s after its input ended")
		}
		codes := <-res
		answered := 0
		for _, c := range codes {
			answered += len(c)
		}
		if reqs := leadingReqs(in); answered != reqs {
			t.Errorf("server answered %d frames, want the %d REQ frames in front of the first frame it cannot take", answered, reqs)
		}

		// A complete first frame that is a REQ with a malformed envelope.
		if len(in) < 13 || in[0] != frameReq {
			return
		}
		n := binary.BigEndian.Uint32(in[9:13])
		if n > maxFrame || uint64(len(in)-13) < uint64(n) {
			return
		}
		if _, err := decodeEnvelope(in[13:13+n], new(reqHeader)); err == nil {
			return
		}
		id := binary.BigEndian.Uint64(in[1:9])
		for _, c := range codes[id] {
			if c == api.CodeInvalidArgument {
				return
			}
		}
		t.Errorf("malformed REQ %d answered with %v, want INVALID_ARGUMENT", id, codes[id])
	})
}

// leadingReqs counts the complete REQ frames at the head of in, up to
// the first frame a server drops the connection on: one of another
// type, one over the cap, or one cut short.
func leadingReqs(in []byte) int {
	n := 0
	for len(in) >= 13 && in[0] == frameReq {
		size := binary.BigEndian.Uint32(in[9:13])
		if size > maxFrame || uint64(len(in)-13) < uint64(size) {
			break
		}
		in = in[13+size:]
		n++
	}
	return n
}

// FuzzDecodeStatus feeds arbitrary RES payloads to the decoders a
// client call runs, statusBody and then decodeResult: they must not
// panic, and a malformed envelope must come back as INVALID_ARGUMENT.
//
//	go test -run '^$' -fuzz FuzzDecodeStatus -fuzztime 30s ./internal/rpc
func FuzzDecodeStatus(f *testing.F) {
	svc := NewService(fleet.New(fleet.Options{Shards: 1}), ServiceOptions{})
	var res *api.InstallResponse
	for _, app := range fuzzApps(f) {
		var aerr *api.Error
		if res, aerr = svc.Install(context.Background(), &api.InstallRequest{Home: "h", Source: app.Source}); aerr != nil {
			f.Fatal(aerr)
		}
	}
	if len(res.Threats) == 0 {
		f.Fatal("the Fig. 3 pair reported no threats")
	}
	body, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	errHdr, err := json.Marshal(resHeader{Status: api.CodeNotFound.GRPC(), Error: api.Errorf(api.CodeNotFound, "no home h9")})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{
		envelope(string(okResHeader), string(body)),
		envelope(string(okResHeader), ""),
		envelope(string(errHdr), ""),
		envelope(string(okResHeader), string(body[:len(body)/2])),
		append([]byte{0, 0, 1, 0}, okResHeader...),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		body, err := statusBody(payload)
		if err == nil {
			decodeResult(body, new(api.InstallResponse)) // may reject the body, must not panic
		}
		if _, herr := decodeEnvelope(payload, new(resHeader)); herr != nil {
			if got := codeOf(t, err); got != api.CodeInvalidArgument {
				t.Errorf("malformed envelope (%v) decoded as %s, want INVALID_ARGUMENT", herr, got)
			}
		}
	})
}
