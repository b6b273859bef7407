package rpc

import (
	"context"
	"encoding/json"
	"net/url"
	"strconv"
	"sync"

	"homeguard/internal/api"
)

// StoreKey is the routing key of the methods that are not scoped to one
// home (the store methods SubmitApps and Findings): the auditor is
// per-node state, so a gateway pins the whole store feed to the one
// ring owner of this key and revisions stay monotonic for its clients.
const StoreKey = "@store"

// Method describes one method of the edge surface. The table of them,
// Methods, drives every edge: the HTTP routes (RegisterHTTP), the RPC
// server's dispatch, the client stubs and the gateway's routing.
type Method struct {
	// Name is the RPC method name on the wire and in the
	// homeguard_rpc_requests_total method label.
	Name string
	// HTTP is the ServeMux pattern the method is served under, "" for
	// the RPC-only methods. A POST route passes its body verbatim; a GET
	// route builds its request from the query parameters. Either binds
	// the home from the path's {id}.
	HTTP string
	// Mutating marks a method that changes node state: a gateway
	// journals it for failover replay and never retries its timeouts (a
	// timed-out write may have applied).
	Mutating bool

	// home points at the request's home field; nil for methods not
	// scoped to one home.
	home func(req any) *string
	// query binds the HTTP query parameters into the request; nil for
	// routes that take none.
	query      func(req any, q url.Values) *api.Error
	newRequest func() any
	call       func(b Backend, ctx context.Context, req any) (any, *api.Error)
}

// Key is the gateway routing key of req: its home, or StoreKey for a
// method not scoped to one home.
func (m *Method) Key(req any) string {
	if m.home == nil {
		return StoreKey
	}
	return *m.home(req)
}

// routeKey is the one field a key-only decode reads.
type routeKey struct {
	Home string `json:"home"`
}

// KeyOf is the routing key of a raw request body, the Key its full
// decode would give, read without decoding the rest of the request: a
// gateway routes by it. The key is scanned (scanRouteKey), so the rest
// of the body, an install's Groovy source included, is only checked,
// never unescaped; a body the scan cannot decide goes to a key-only
// json.Unmarshal. A body that decode rejects is decoded in full, so the
// error is the one the node itself would answer.
func (m *Method) KeyOf(body []byte) (string, *api.Error) {
	if m.home == nil {
		return StoreKey, nil
	}
	if home, ok := scanRouteKey(body); ok {
		return home, nil
	}
	var k routeKey
	if len(body) > 0 && json.Unmarshal(body, &k) == nil {
		return k.Home, nil
	}
	req := m.newRequest()
	if aerr := decodeBody(body, req); aerr != nil {
		return "", aerr
	}
	return m.Key(req), nil
}

// appender is a response that encodes itself: AppendJSON appends the
// bytes json.Marshal would return (the api package's contract).
type appender interface {
	AppendJSON(dst []byte) []byte
}

// serve runs the method on b from a raw request body: decode it, bind
// key (when non-empty) as the request's home the way the HTTP edge
// binds {id}, call b, and append the response's encoding to dst, with
// its own AppendJSON when it has one and json.Marshal otherwise.
func (m *Method) serve(ctx context.Context, b Backend, key string, body, dst []byte) ([]byte, *api.Error) {
	req := m.newRequest()
	if aerr := decodeBody(body, req); aerr != nil {
		return nil, aerr
	}
	if key != "" && m.home != nil {
		*m.home(req) = key
	}
	res, aerr := m.call(b, ctx, req)
	if aerr != nil {
		return nil, aerr
	}
	if a, ok := res.(appender); ok {
		return a.AppendJSON(dst), nil
	}
	out, err := json.Marshal(res)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "encode response: %v", err)
	}
	return append(dst, out...), nil
}

// bodyBufs holds the response buffers the edges pass to Handler.Serve
// as dst. An edge takes one per request and puts it back once the
// response is written (putBody), so the pool holds no more buffers than
// there are requests in flight. A buffer past maxPooledBody bytes is
// dropped, not kept.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// getBody takes an empty response buffer from the pool.
func getBody() *[]byte {
	bp := bodyBufs.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBody returns bp to the pool once the response out, which Serve
// appended to *bp, is written; bp keeps out's storage when it grew.
func putBody(bp *[]byte, out []byte) {
	if cap(out) > cap(*bp) {
		*bp = out
	}
	if cap(*bp) <= maxPooledBody {
		bodyBufs.Put(bp)
	}
}

// Desc is a typed handle on one table entry: a client stub that names
// its method through a Desc is checked by the compiler to pass the
// request type the method takes and to expect the response type it
// returns.
type Desc[Req, Resp any] struct{ *Method }

// spec is one table entry as written below, typed by its request and
// response.
type spec[Req, Resp any] struct {
	Method
	Home  func(*Req) *string
	Query func(*Req, url.Values) *api.Error
	Call  func(Backend, context.Context, *Req) (*Resp, *api.Error)
}

// define turns a typed table entry into its descriptor.
func define[Req, Resp any](s spec[Req, Resp]) Desc[Req, Resp] {
	m := s.Method
	if s.Home != nil {
		m.home = func(req any) *string { return s.Home(req.(*Req)) }
	}
	if s.Query != nil {
		m.query = func(req any, q url.Values) *api.Error { return s.Query(req.(*Req), q) }
	}
	m.newRequest = func() any { return new(Req) }
	m.call = func(b Backend, ctx context.Context, req any) (any, *api.Error) { return s.Call(b, ctx, req.(*Req)) }
	return Desc[Req, Resp]{&m}
}

// The method table. Each method's name, route and flags are written
// here once; the edges read them from these descriptors.
var (
	MethodInstall = define(spec[api.InstallRequest, api.InstallResponse]{
		Method: Method{Name: "Install", HTTP: "POST /homes/{id}/install", Mutating: true},
		Home:   func(r *api.InstallRequest) *string { return &r.Home },
		Call:   Backend.Install,
	})
	MethodInstallBatch = define(spec[api.InstallBatchRequest, api.InstallBatchResponse]{
		Method: Method{Name: "InstallBatch", HTTP: "POST /homes/{id}/install-batch", Mutating: true},
		Home:   func(r *api.InstallBatchRequest) *string { return &r.Home },
		Call:   Backend.InstallBatch,
	})
	MethodReconfigure = define(spec[api.ReconfigureRequest, api.ReconfigureResponse]{
		Method: Method{Name: "Reconfigure", HTTP: "POST /homes/{id}/reconfigure", Mutating: true},
		Home:   func(r *api.ReconfigureRequest) *string { return &r.Home },
		Call:   Backend.Reconfigure,
	})
	MethodAccept = define(spec[api.AcceptRequest, api.AcceptResponse]{
		Method: Method{Name: "Accept", HTTP: "POST /homes/{id}/accept", Mutating: true},
		Home:   func(r *api.AcceptRequest) *string { return &r.Home },
		Call:   Backend.Accept,
	})
	MethodThreats = define(spec[api.ThreatsRequest, api.ThreatsResponse]{
		Method: Method{Name: "Threats", HTTP: "GET /homes/{id}/threats"},
		Home:   func(r *api.ThreatsRequest) *string { return &r.Home },
		Query: func(r *api.ThreatsRequest, q url.Values) *api.Error {
			v := q.Get("active")
			r.Active = v == "true" || v == "1"
			return nil
		},
		Call: Backend.Threats,
	})
	MethodApps = define(spec[api.AppsRequest, api.AppsResponse]{
		Method: Method{Name: "Apps", HTTP: "GET /homes/{id}/apps"},
		Home:   func(r *api.AppsRequest) *string { return &r.Home },
		Call: func(b Backend, ctx context.Context, r *api.AppsRequest) (*api.AppsResponse, *api.Error) {
			return b.Apps(ctx, r.Home)
		},
	})
	MethodSubmitApps = define(spec[api.SubmitAppsRequest, api.SubmitAppsResponse]{
		Method: Method{Name: "SubmitApps", HTTP: "POST /store/apps", Mutating: true},
		Call:   Backend.SubmitApps,
	})
	MethodFindings = define(spec[api.FindingsRequest, api.FindingsResponse]{
		Method: Method{Name: "Findings", HTTP: "GET /store/findings"},
		Query: func(r *api.FindingsRequest, q url.Values) *api.Error {
			if v := q.Get("since"); v != "" {
				since, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return api.Errorf(api.CodeInvalidArgument, "bad since revision %q", v)
				}
				r.Since = since
			}
			return nil
		},
		Call: Backend.Findings,
	})
	MethodPing = define(spec[api.PingRequest, api.PingResponse]{
		Method: Method{Name: "Ping"},
		Call: func(b Backend, ctx context.Context, _ *api.PingRequest) (*api.PingResponse, *api.Error) {
			return b.Ping(ctx)
		},
	})
	MethodMigrateHome = define(spec[api.MigrateHomeRequest, api.MigrateHomeResponse]{
		Method: Method{Name: "MigrateHome", Mutating: true},
		Home:   func(r *api.MigrateHomeRequest) *string { return &r.Home },
		Call:   Backend.MigrateHome,
	})
	MethodAdoptHome = define(spec[api.AdoptHomeRequest, api.AdoptHomeResponse]{
		Method: Method{Name: "AdoptHome", Mutating: true},
		Home:   func(r *api.AdoptHomeRequest) *string { return &r.Home },
		Call:   Backend.AdoptHome,
	})
)

// Methods lists every descriptor, each Backend method exactly once.
var Methods = []*Method{
	MethodInstall.Method, MethodInstallBatch.Method, MethodReconfigure.Method,
	MethodAccept.Method, MethodThreats.Method, MethodApps.Method,
	MethodSubmitApps.Method, MethodFindings.Method, MethodPing.Method,
	MethodMigrateHome.Method, MethodAdoptHome.Method,
}

// unaryMethods indexes the table by wire name for the server's
// dispatch.
var unaryMethods = map[string]*Method{}

func init() {
	for _, m := range Methods {
		unaryMethods[m.Name] = m
	}
}
