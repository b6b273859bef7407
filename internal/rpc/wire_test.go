package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/obs"
)

// stubBackend answers Apps and Install with canned values and
// counts every call it serves. The other Backend methods belong to the
// nil embedded interface, so a test that reaches one panics.
type stubBackend struct {
	Backend
	calls   atomic.Int64
	apps    *api.AppsResponse
	appsErr *api.Error
}

func (b *stubBackend) Apps(ctx context.Context, home string) (*api.AppsResponse, *api.Error) {
	b.calls.Add(1)
	return b.apps, b.appsErr
}

func (b *stubBackend) BreakerState(string) string { return "" }

func (b *stubBackend) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	b.calls.Add(1)
	return &api.InstallResponse{App: "stub"}, nil
}

// startStub serves b on a loopback listener and returns a connected
// client.
func startStub(t *testing.T, b Backend, opts ServerOptions) *Client {
	t.Helper()
	srv := NewServer(b, opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client
}

// pipeServer runs one server connection over net.Pipe and returns the
// client end, with a deadline so a broken exchange fails instead of
// hanging. Cleanup closes the pipe and fails the test unless the
// connection then winds down.
func pipeServer(t *testing.T, b Backend) net.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	srv := NewServer(b, ServerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(sEnd)
	}()
	cEnd.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() {
		cEnd.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server connection still running 10s after the client hung up")
		}
	})
	return cEnd
}

// rawFrame builds one frame around payload, of any type.
func rawFrame(typ byte, id uint64, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{typ}, id)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// statusErr is the error a client decodes from a RES payload, nil for
// a success.
func statusErr(payload []byte) error {
	_, err := statusBody(payload)
	return err
}

// envelope builds an envelope payload from a header JSON and a body.
func envelope(hdr, body string) []byte {
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	if err := fw.writeEnvelope(0, 0, []byte(hdr), []byte(body)); err != nil {
		panic(err)
	}
	return buf.Bytes()[13:]
}

// Golden frames for Apps("h1") on stream 1 and its reply: the frame
// header, the envelope's header length, the header JSON, then the body
// exactly as json.Marshal wrote it.
const (
	goldenReq = "\x01" + "\x00\x00\x00\x00\x00\x00\x00\x01" + "\x00\x00\x00\x22" +
		"\x00\x00\x00\x11" + `{"method":"Apps"}` + `{"home":"h1"}`
	goldenRes = "\x04" + "\x00\x00\x00\x00\x00\x00\x00\x01" + "\x00\x00\x00\x34" +
		"\x00\x00\x00\x0c" + `{"status":0}` + `{"homeId":"h1","apps":["ComfortTV"]}`
)

// TestWireGoldenFrames pins the byte layout of one REQ frame as the
// client writes it and of one RES frame as the server writes it, and
// that each side reads the other's golden frame.
func TestWireGoldenFrames(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		cEnd, sEnd := net.Pipe()
		sEnd.SetDeadline(time.Now().Add(10 * time.Second))
		defer sEnd.Close()
		sent := make(chan []byte, 1)
		go func() { // plays the server
			buf := make([]byte, len(Preface)+len(goldenReq))
			if _, err := io.ReadFull(sEnd, buf); err != nil {
				sent <- nil
				sEnd.Close() // fails the pending call
				return
			}
			sent <- buf
			sEnd.Write([]byte(goldenRes))
		}()
		client, err := NewClient(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		// No deadline, so the header carries no deadlineMs; the pipe
		// deadline bounds the test.
		res, err := client.Apps(context.Background(), "h1")
		if got, want := string(<-sent), Preface+goldenReq; got != want {
			t.Errorf("client wrote\n%q\nwant\n%q", got, want)
		}
		if err != nil {
			t.Fatalf("Apps over golden RES: %v", err)
		}
		if res.HomeID != "h1" || len(res.Apps) != 1 || res.Apps[0] != "ComfortTV" {
			t.Errorf("decoded golden RES = %+v", res)
		}
	})
	t.Run("server", func(t *testing.T) {
		stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1", Apps: []string{"ComfortTV"}}}
		conn := pipeServer(t, stub)
		if _, err := conn.Write([]byte(Preface + goldenReq)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(goldenRes))
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != goldenRes {
			t.Errorf("server wrote\n%q\nwant\n%q", buf, goldenRes)
		}
	})
}

// TestWireOldPrefaceRefused: a peer speaking the HGRPC/1 layout is
// disconnected at the preface, before any frame is dispatched.
func TestWireOldPrefaceRefused(t *testing.T) {
	stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1"}}
	conn := pipeServer(t, stub)
	old := rawFrame(frameReq, 1, []byte(`{"method":"Apps","body":{"home":"h1"}}`))
	go conn.Write(append([]byte("HGRPC/1\x00"), old...)) // fails once the server hangs up
	if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after old preface = %d bytes, %v; want the connection closed", n, err)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Errorf("backend served %d calls over an HGRPC/1 connection", n)
	}
}

// TestWireEmptyBodies round-trips the bodiless envelope: an error RES.
func TestWireEmptyBodies(t *testing.T) {
	t.Run("error RES", func(t *testing.T) {
		stub := &stubBackend{appsErr: api.Errorf(api.CodeNotFound, "no home h9")}
		conn := pipeServer(t, stub)
		if _, err := conn.Write(append([]byte(Preface), rawFrame(frameReq, 7, envelope(`{"method":"Apps"}`, `{"home":"h9"}`))...)); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(bufio.NewReader(conn))
		if err != nil {
			t.Fatal(err)
		}
		hdr, body, err := splitEnvelope(f.payload)
		if err != nil || f.typ != frameRes || f.id != 7 || len(body) != 0 {
			t.Fatalf("error RES = type %d id %d header %q body %q (%v); want RES 7 with no body", f.typ, f.id, hdr, body, err)
		}
		if got := codeOf(t, statusErr(f.payload)); got != api.CodeNotFound {
			t.Errorf("decoded code %s, want NOT_FOUND", got)
		}
		// And through the client.
		_, err = startStub(t, stub, ServerOptions{}).Apps(context.Background(), "h9")
		if got := codeOf(t, err); got != api.CodeNotFound || !strings.Contains(err.Error(), "no home h9") {
			t.Errorf("client Apps = %v, want the NOT_FOUND envelope", err)
		}
	})
}

// TestWireMalformedEnvelope: a REQ whose header length overruns the
// frame, that is too short to hold one, or whose header is not JSON is
// answered with INVALID_ARGUMENT on a connection that stays up, and
// dispatches nothing; the client types the same RES payloads the same
// way.
func TestWireMalformedEnvelope(t *testing.T) {
	bad := map[string][]byte{
		"overrun":     append([]byte{0, 0, 1, 0}, `{"method":"Apps"}`...),
		"short":       {0, 0},
		"not JSON":    envelope(`{"method":`, `{"home":"h1"}`),
		"wrong types": envelope(`{"method":7,"status":"x"}`, `{"home":"h1"}`),
	}
	stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1"}}
	conn := pipeServer(t, stub)
	if _, err := conn.Write([]byte(Preface)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var id uint64
	for name, payload := range bad {
		id++
		if _, err := conn.Write(rawFrame(frameReq, id, payload)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.typ != frameRes || f.id != id {
			t.Fatalf("%s: got frame type %d id %d, want RES %d", name, f.typ, f.id, id)
		}
		if got := codeOf(t, statusErr(f.payload)); got != api.CodeInvalidArgument {
			t.Errorf("%s: server answered %s, want INVALID_ARGUMENT", name, got)
		}
		if got := codeOf(t, statusErr(payload)); got != api.CodeInvalidArgument {
			t.Errorf("%s: client typed the payload %s, want INVALID_ARGUMENT", name, got)
		}
	}
	if n := stub.calls.Load(); n != 0 {
		t.Errorf("backend served %d calls for malformed requests", n)
	}
}

// TestRPCOversized: a response over the frame cap comes back as
// RESOURCE_EXHAUSTED instead of a lost frame, and is counted as the
// RESOURCE_EXHAUSTED it was sent as; an oversized request is refused
// locally with RESOURCE_EXHAUSTED, sending nothing. The connection
// survives both.
func TestRPCOversized(t *testing.T) {
	huge := strings.Repeat("x", maxFrame)
	stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1", Apps: []string{huge}}}
	o := obs.NewObserver()
	client := startStub(t, stub, ServerOptions{Obs: o})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Server to client, unary.
	_, err := client.Apps(ctx, "h1")
	if got := codeOf(t, err); got != api.CodeResourceExhausted {
		t.Fatalf("oversized Apps reply = %v, want RESOURCE_EXHAUSTED", err)
	}
	counts := requestCounts(t, o)
	if counts["Apps|RESOURCE_EXHAUSTED"] != 1 || counts["Apps|OK"] != 0 {
		t.Errorf("oversized Apps reply counted as %v, want Apps|RESOURCE_EXHAUSTED = 1 and no Apps|OK", counts)
	}

	// Client to server.
	before := stub.calls.Load()
	_, err = client.Install(ctx, &api.InstallRequest{Home: "h1", Source: huge})
	if got := codeOf(t, err); got != api.CodeResourceExhausted {
		t.Fatalf("oversized Install request = %v, want RESOURCE_EXHAUSTED", err)
	}
	if n := stub.calls.Load() - before; n != 0 {
		t.Errorf("oversized requests reached the backend %d times", n)
	}

	// The connection is intact.
	if err := client.Err(); err != nil {
		t.Fatalf("connection died: %v", err)
	}
	if res, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}); err != nil || res.App != "stub" {
		t.Fatalf("install after the oversized calls = %v, %v", res, err)
	}
}

// TestWireHeaderConstants pins the precomputed OK header to what
// json.Marshal writes for it.
func TestWireHeaderConstants(t *testing.T) {
	got, err := json.Marshal(resHeader{})
	if err != nil || !bytes.Equal(got, okResHeader) {
		t.Errorf("okResHeader = %s, json.Marshal writes %s (%v)", okResHeader, got, err)
	}
}

// TestWireRetiredStreamFrames: a MSG (2) or EOS (3) frame, the frame
// types of the retired bidirectional streams, is a protocol error. The
// server drops the connection without dispatching it or the REQ behind
// it.
func TestWireRetiredStreamFrames(t *testing.T) {
	for _, typ := range []byte{2, 3} {
		stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1"}}
		conn := pipeServer(t, stub)
		in := append([]byte(Preface), rawFrame(typ, 1, []byte(`{"home":"h1"}`))...)
		in = append(in, rawFrame(frameReq, 2, envelope(`{"method":"Apps"}`, `{"home":"h1"}`))...)
		go conn.Write(in) // fails once the server hangs up
		if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
			t.Fatalf("type %d: read = %d bytes, %v; want the connection closed", typ, n, err)
		}
		if n := stub.calls.Load(); n != 0 {
			t.Errorf("type %d: backend served %d calls", typ, n)
		}
	}
}

// TestWireStreamMethodNotFound: the retired stream methods' names are
// not in the method table, so a REQ naming one is NOT_FOUND and the
// connection carries on.
func TestWireStreamMethodNotFound(t *testing.T) {
	stub := &stubBackend{apps: &api.AppsResponse{HomeID: "h1"}}
	conn := pipeServer(t, stub)
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte(Preface)); err != nil {
		t.Fatal(err)
	}
	for id, method := range []string{"StreamInstall", "StreamThreats", "Apps"} {
		if _, err := conn.Write(rawFrame(frameReq, uint64(id+1), envelope(`{"method":"`+method+`"}`, `{"home":"h1"}`))); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(br)
		if err != nil || f.typ != frameRes || f.id != uint64(id+1) {
			t.Fatalf("%s: got frame type %d id %d, %v; want RES %d", method, f.typ, f.id, err, id+1)
		}
		err = statusErr(f.payload)
		if method == "Apps" {
			if err != nil {
				t.Errorf("Apps after the stream names: %v", err)
			}
		} else if got := codeOf(t, err); got != api.CodeNotFound {
			t.Errorf("%s: answered %s, want NOT_FOUND", method, got)
		}
	}
	if n := stub.calls.Load(); n != 1 {
		t.Errorf("backend served %d calls, want the one Apps", n)
	}
}
