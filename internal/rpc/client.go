package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"homeguard/internal/api"
)

// Client is a connection to an RPC server. It is safe for concurrent
// use: calls multiplex over the one connection by stream id.
type Client struct {
	conn net.Conn
	fw   *frameWriter

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]chan frame
	err    error // sticky transport error, set when the read loop dies
}

// Dial connects to an RPC server. A failed dial is a typed UNAVAILABLE
// *api.Error (wrapping the net error), so retry layers and breakers can
// classify it without string matching.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, api.Wrap(api.CodeUnavailable, err, "rpc: dial "+addr)
	}
	return NewClient(conn)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, api.Wrap(api.CodeUnavailable, err, "rpc: dial "+addr)
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (the preface is written
// here) and starts the demultiplexing read loop.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:  conn,
		fw:    &frameWriter{w: bufio.NewWriterSize(conn, 32<<10)},
		calls: map[uint64]chan frame{},
	}
	if _, err := io.WriteString(conn, Preface); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail with a
// transport error.
func (c *Client) Close() error { return c.conn.Close() }

// Err reports the sticky transport error once the read loop has died,
// nil while the connection is live. A pooled client with a non-nil Err
// is dead and must be discarded and re-dialed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop routes incoming frames to their calls until the connection
// dies, then fails every pending call.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 32<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.mu.Lock()
			c.err = api.Wrap(api.CodeUnavailable, err, "rpc: connection lost")
			for id, ch := range c.calls {
				close(ch)
				delete(c.calls, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.calls[f.id]
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// register allocates a stream id and the channel its RES arrives on.
func (c *Client) register() (uint64, chan frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan frame, 1)
	c.calls[id] = ch
	return id, ch, nil
}

// unregister forgets a finished call.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
}

// transportErr returns the sticky read-loop error, or a generic one.
// Transport failures are always typed UNAVAILABLE *api.Error values so
// the cluster retry layer and per-node breakers can classify them.
func (c *Client) transportErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return api.Errorf(api.CodeUnavailable, "rpc: connection closed")
}

// deadlineMsOf extracts the wire deadline from a context.
func deadlineMsOf(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			return ms
		}
		return 1 // expired: let the server reject it authoritatively
	}
	return 0
}

// Call invokes one unary method: req is marshaled into the request
// body, the response body is unmarshaled into resp (ignored when resp
// is nil). Server-side failures come back as *api.Error; so do
// transport failures (UNAVAILABLE) and a request too large for one
// frame (RESOURCE_EXHAUSTED, refused before anything is sent).
func (c *Client) Call(ctx context.Context, method string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := c.CallRaw(ctx, method, "", body)
	if err != nil {
		return err
	}
	return decodeResult(out, resp)
}

// CallRaw invokes one unary method with a request body already encoded
// and returns the response body undecoded; it aliases the RES frame,
// which nothing else holds. A non-empty key goes into the REQ header
// and binds the request to that home on the server. Errors are those
// of Call.
func (c *Client) CallRaw(ctx context.Context, method, key string, body []byte) ([]byte, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	defer c.unregister(id)
	if err := c.sendReq(ctx, id, reqHeader{Method: method, Key: key}, body); err != nil {
		return nil, err
	}
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				return nil, c.transportErr()
			}
			if f.typ != frameRes {
				continue // stray frame on a unary call: ignore
			}
			return statusBody(f.payload)
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
}

// sendReq writes the REQ frame opening stream id, stamping hdr with the
// context's deadline. A write failure is UNAVAILABLE, except that an
// oversized request keeps its RESOURCE_EXHAUSTED: the connection is
// fine, the request is not.
func (c *Client) sendReq(ctx context.Context, id uint64, hdr reqHeader, body []byte) error {
	hdr.DeadlineMs = deadlineMsOf(ctx)
	var buf [128]byte
	if err := c.fw.writeEnvelope(frameReq, id, hdr.appendJSON(buf[:0]), body); err != nil {
		var aerr *api.Error
		if errors.As(err, &aerr) {
			return aerr
		}
		return api.Wrap(api.CodeUnavailable, err, "rpc: send")
	}
	return nil
}

// ctxErr types a local context expiry the way the server would have:
// DEADLINE_EXCEEDED or CANCELLED, with the context error wrapped so
// errors.Is(err, context.DeadlineExceeded) still holds.
func ctxErr(ctx context.Context) error {
	err := ctx.Err()
	code := api.CodeCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		code = api.CodeDeadlineExceeded
	}
	return api.Wrap(code, err, "rpc: call aborted")
}

// statusBody unpacks a RES payload into its error or its body, which
// aliases payload. A malformed envelope is INVALID_ARGUMENT.
func statusBody(payload []byte) ([]byte, error) {
	hdr, body, err := splitEnvelope(payload)
	if err == nil && bytes.Equal(hdr, okResHeader) {
		return body, nil // the header every success carries: nothing to decode
	}
	var res resHeader
	body, err = decodeEnvelope(payload, &res)
	if err != nil {
		return nil, errBadEnvelope("response", err)
	}
	if res.Error != nil {
		return nil, res.Error
	}
	if res.Status != 0 {
		return nil, api.Errorf(api.CodeInternal, "status %d with no error envelope", res.Status)
	}
	return body, nil
}

// decodeResult unmarshals a response body into resp; a nil resp or an
// empty body decodes nothing.
func decodeResult(body []byte, resp any) error {
	if resp != nil && len(body) > 0 {
		if err := json.Unmarshal(body, resp); err != nil {
			return fmt.Errorf("rpc: bad response body: %w", err)
		}
	}
	return nil
}

// unary invokes one unary method of the table.
func unary[Req, Resp any](ctx context.Context, c *Client, d Desc[Req, Resp], req *Req) (*Resp, error) {
	resp := new(Resp)
	if err := c.Call(ctx, d.Name, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Install invokes the unary Install RPC.
func (c *Client) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, error) {
	return unary(ctx, c, MethodInstall, req)
}

// InstallBatch invokes the unary-batched InstallBatch RPC.
func (c *Client) InstallBatch(ctx context.Context, req *api.InstallBatchRequest) (*api.InstallBatchResponse, error) {
	return unary(ctx, c, MethodInstallBatch, req)
}

// Reconfigure invokes the unary Reconfigure RPC.
func (c *Client) Reconfigure(ctx context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, error) {
	return unary(ctx, c, MethodReconfigure, req)
}

// Threats invokes the unary Threats RPC.
func (c *Client) Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, error) {
	return unary(ctx, c, MethodThreats, req)
}

// SubmitApps invokes the unary SubmitApps store RPC.
func (c *Client) SubmitApps(ctx context.Context, req *api.SubmitAppsRequest) (*api.SubmitAppsResponse, error) {
	return unary(ctx, c, MethodSubmitApps, req)
}

// Findings invokes the unary Findings store-feed RPC.
func (c *Client) Findings(ctx context.Context, req *api.FindingsRequest) (*api.FindingsResponse, error) {
	return unary(ctx, c, MethodFindings, req)
}

// Accept invokes the unary Accept RPC.
func (c *Client) Accept(ctx context.Context, req *api.AcceptRequest) (*api.AcceptResponse, error) {
	return unary(ctx, c, MethodAccept, req)
}

// Apps invokes the unary Apps RPC.
func (c *Client) Apps(ctx context.Context, home string) (*api.AppsResponse, error) {
	return unary(ctx, c, MethodApps, &api.AppsRequest{Home: home})
}

// Ping invokes the lightweight health-probe RPC (the gateway heartbeat).
func (c *Client) Ping(ctx context.Context) (*api.PingResponse, error) {
	return unary(ctx, c, MethodPing, &api.PingRequest{})
}

// MigrateHome invokes the unary MigrateHome RPC: the node exports the
// home's durable state and detaches it.
func (c *Client) MigrateHome(ctx context.Context, req *api.MigrateHomeRequest) (*api.MigrateHomeResponse, error) {
	return unary(ctx, c, MethodMigrateHome, req)
}
