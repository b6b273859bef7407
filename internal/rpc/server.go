package rpc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/obs"
)

// ServerOptions tune the RPC server.
type ServerOptions struct {
	// DefaultTimeout bounds RPCs whose client sent no deadline
	// (default 30s; <0 disables).
	DefaultTimeout time.Duration
	// Obs, when set, threads rpc.<Method> spans through the tracer and
	// registers the homeguard_rpc_* metrics catalog.
	Obs *obs.Observer
}

// Handler is the raw entry point every edge dispatches into: the RPC
// server's calls and the HTTP routes both call Serve with the method's
// descriptor, the home key the edge bound, the request body and a
// response buffer dst, and write the response body Serve returns
// verbatim. key is non-empty only for a method scoped to one home: the
// REQ header's key on the RPC edge, the path's {id} on the HTTP edge,
// "" when the edge has none (store methods, clients that send no key).
//
// Ownership: body is the handler's to keep; the edges never reuse it.
// dst belongs to the edge. Serve appends the response body to dst and
// returns the result, and must not keep dst or the returned slice once
// it returns: the edge writes the response and then reuses the buffer
// for another request. *Service serves through the method table;
// cmd/homeguardgw's router routes by key and appends the owner's
// response body to dst without decoding either body.
type Handler interface {
	Serve(ctx context.Context, m *Method, key string, body, dst []byte) ([]byte, *api.Error)
	// BreakerState reports the named stage's breaker ("" for an unknown
	// stage) for the homeguard_rpc_breaker_open gauge.
	BreakerState(stage string) string
}

// Backend is a Handler with the typed method set, one method per table
// descriptor. *Service is the canonical implementation (one fleet,
// local breakers). The edges serve a Backend through its typed methods
// (handlerOf), so a type that embeds *Service and overrides one of
// them sees every call that method receives.
type Backend interface {
	Handler
	Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error)
	InstallBatch(ctx context.Context, req *api.InstallBatchRequest) (*api.InstallBatchResponse, *api.Error)
	Reconfigure(ctx context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error)
	Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error)
	Accept(ctx context.Context, req *api.AcceptRequest) (*api.AcceptResponse, *api.Error)
	Apps(ctx context.Context, home string) (*api.AppsResponse, *api.Error)
	SubmitApps(ctx context.Context, req *api.SubmitAppsRequest) (*api.SubmitAppsResponse, *api.Error)
	Findings(ctx context.Context, req *api.FindingsRequest) (*api.FindingsResponse, *api.Error)
	Ping(ctx context.Context) (*api.PingResponse, *api.Error)
	MigrateHome(ctx context.Context, req *api.MigrateHomeRequest) (*api.MigrateHomeResponse, *api.Error)
	AdoptHome(ctx context.Context, req *api.AdoptHomeRequest) (*api.AdoptHomeResponse, *api.Error)
}

// typed serves a Backend through the method table and its own typed
// methods, whatever type embeds them.
type typed struct{ Backend }

func (t typed) Serve(ctx context.Context, m *Method, key string, body, dst []byte) ([]byte, *api.Error) {
	return m.serve(ctx, t.Backend, key, body, dst)
}

// handlerOf is the handler an edge dispatches into for h: a Backend is
// served through its typed methods, any other Handler as it is.
func handlerOf(h Handler) Handler {
	if b, ok := h.(Backend); ok {
		return typed{b}
	}
	return h
}

// Server serves the framed RPC protocol over a net.Listener,
// dispatching to a Handler. One server handles any number of
// connections; each connection multiplexes concurrent RPCs by stream
// id.
type Server struct {
	svc  Handler
	opts ServerOptions
	m    *rpcMetrics

	// handlers runs the RPC handlers of every connection.
	handlers workers

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server for h. When opts.Obs carries a
// registry, the server registers its metrics collector immediately.
func NewServer(h Handler, opts ServerOptions) *Server {
	if opts.DefaultTimeout == 0 {
		opts.DefaultTimeout = 30 * time.Second
	}
	s := &Server{svc: handlerOf(h), opts: opts, conns: map[net.Conn]struct{}{}, m: newRPCMetrics()}
	if opts.Obs != nil && opts.Obs.Registry != nil {
		s.m.register(opts.Obs.Registry, h)
	}
	return s
}

// Serve accepts connections on lis until Close. It returns nil after
// Close, or the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rpc: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// handleConn runs one connection: verify the preface, then read frames
// and dispatch. Each RPC handler runs on a reused worker goroutine
// (workers), so it starts on a stack an earlier RPC already grew;
// responses are serialized through the shared frame writer.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)
	var pre [len(Preface)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || string(pre[:]) != Preface {
		return
	}
	fw := &frameWriter{w: bufio.NewWriterSize(conn, 32<<10)}
	// Per-connection handler tracking: when the reader loop exits, the
	// connection context is canceled so abandoned handlers unwind, and
	// only then waited for.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		if f.typ != frameReq {
			return // protocol error, the retired MSG and EOS included: drop the connection
		}
		var hdr reqHeader
		h, body, err := splitEnvelope(f.payload)
		if err == nil {
			err = decodeReqHeader(h, &hdr)
		}
		if err != nil {
			hdr, _, _ := encodeStatus(errBadEnvelope("request header", err), nil)
			_ = fw.writeEnvelope(frameRes, f.id, hdr, nil) // a failed write surfaces on the next read
			continue
		}
		wg.Add(1)
		id := f.id
		s.handlers.Go(func() {
			defer wg.Done()
			s.handleUnary(ctx, fw, id, hdr, body)
		})
	}
}

// rpcCtx derives the RPC's context from the client deadline, falling
// back to the server default. A deadline too far out for a
// time.Duration is the longest one.
func (s *Server) rpcCtx(parent context.Context, deadlineMs int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	switch {
	case deadlineMs > int64(math.MaxInt64/time.Millisecond):
		d = math.MaxInt64
	case deadlineMs > 0:
		d = time.Duration(deadlineMs) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// statusCode is the status code of an RPC outcome.
func statusCode(aerr *api.Error) api.Code {
	if aerr == nil {
		return api.CodeOK
	}
	return aerr.Code
}

// handleUnary runs one RPC whose request body is body under a span and
// the homeguard_rpc_* metrics, then sends its RES frame. The latency
// ends, like the span, when the call returns; the request counter
// records the code of the frame actually sent, which differs from the
// call's outcome when the response is too large for one frame.
func (s *Server) handleUnary(parent context.Context, fw *frameWriter, id uint64, hdr reqHeader, body []byte) {
	ctx, cancel := s.rpcCtx(parent, hdr.DeadlineMs)
	defer cancel()
	var sp *obs.Span
	if s.opts.Obs != nil {
		sp = s.opts.Obs.Tracer.Start("rpc." + hdr.Method)
		sp.SetStr("method", hdr.Method)
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	start := time.Now()
	bp := getBody()
	var res []byte
	var aerr *api.Error
	if m := unaryMethods[hdr.Method]; m == nil {
		aerr = api.Errorf(api.CodeNotFound, "unknown method %q", hdr.Method)
	} else {
		key := hdr.Key
		if m.home == nil {
			key = ""
		}
		res, aerr = s.svc.Serve(ctx, m, key, body, *bp)
	}
	sp.SetStr("code", string(statusCode(aerr)))
	sp.End()
	d := time.Since(start)
	rhdr, rbody, aerr := encodeStatus(aerr, res)
	s.m.observe(hdr.Method, statusCode(aerr), d)
	// A write failure means the connection died; the reader loop
	// notices and unwinds.
	_ = fw.writeEnvelope(frameRes, id, rhdr, rbody)
	putBody(bp, res)
}

// encodeStatus builds the RES frame of one finished RPC: body, already
// encoded, is the body of a success; a failure, or a body too large for
// one frame, is a status header with no body. It returns the error the
// frame carries.
func encodeStatus(aerr *api.Error, body []byte) (hdr, out []byte, sent *api.Error) {
	if aerr == nil {
		n := envelopeSize(okResHeader, body)
		if n <= maxFrame {
			return okResHeader, body, nil
		}
		aerr = errFrameTooLarge("response", n)
	}
	res := resHeader{Status: aerr.Code.GRPC(), Error: aerr}
	return res.appendJSON(nil), nil, aerr
}

// ---------- metrics ----------

// rpcMetrics aggregates the homeguard_rpc_* catalog. Counters are a
// mutex-guarded map keyed by (method, code) — RPC dispatch is far from
// the solver hot path, so a mutex is fine — and latency is one shared
// atomic histogram.
type rpcMetrics struct {
	mu      sync.Mutex
	byCode  map[[2]string]uint64 // (method, code) → count
	latency *obs.Histogram
}

func newRPCMetrics() *rpcMetrics {
	return &rpcMetrics{byCode: map[[2]string]uint64{}, latency: &obs.Histogram{}}
}

func (m *rpcMetrics) observe(method string, code api.Code, d time.Duration) {
	m.latency.Observe(d)
	m.mu.Lock()
	m.byCode[[2]string{method, string(code)}]++
	m.mu.Unlock()
}

// register exports the catalog through a scrape-time collector.
func (m *rpcMetrics) register(reg *obs.Registry, svc Handler) {
	reg.RegisterCollector(func(e *obs.Emit) {
		m.mu.Lock()
		keys := make([][2]string, 0, len(m.byCode))
		for k := range m.byCode {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		counts := make([]uint64, len(keys))
		for i, k := range keys {
			counts[i] = m.byCode[k]
		}
		m.mu.Unlock()
		for i, k := range keys {
			e.Counter("homeguard_rpc_requests_total", "RPC requests by method and gRPC status code.",
				float64(counts[i]), obs.Label{Name: "method", Value: k[0]}, obs.Label{Name: "code", Value: k[1]})
		}
		e.Histogram("homeguard_rpc_latency_seconds", "Server-side RPC latency (all methods).", m.latency.Snapshot())
		for _, stage := range []string{StageExtract, StageDetect} {
			e.Gauge("homeguard_rpc_breaker_open", "Circuit breaker state by stage (0 closed, 0.5 half-open, 1 open).",
				breakerGaugeValue(svc.BreakerState(stage)), obs.Label{Name: "stage", Value: stage})
		}
	})
}

func breakerGaugeValue(state string) float64 {
	switch state {
	case BreakerOpen:
		return 1
	case BreakerHalfOpen:
		return 0.5
	}
	return 0
}
