// Package rpc is HomeGuard's gRPC enforcement edge: the framed
// request/response transport cmd/homeguardd serves alongside HTTP, the
// per-stage circuit breakers that shed load when extraction or
// detection degrades, and the service core both transports share.
//
// # Method table
//
// Methods (methods.go) holds one descriptor per Backend method: wire
// name, HTTP route, request binding, read-or-mutating flag and the
// Backend call. RegisterHTTP mounts its routes for homeguardd and
// homeguardgw alike, the server dispatches by table lookup, and the
// Client stubs take their names from it. Every edge — RPC calls and
// HTTP routes — hands the descriptor, a home key and the raw request
// body to one Handler.Serve and writes the raw response body it
// returns: the RPC edge as the RES body, the HTTP edge as the response
// body plus a newline. A node's *Service decodes, calls and marshals
// there, with one request-body decoder for both edges, so they accept
// and reject the same bytes; the gateway routes by the key (or by
// Method.KeyOf, a key-only read of the body) and relays both bodies
// verbatim, never decoding them.
//
// # Protocol
//
// The wire protocol models gRPC: the status-code vocabulary, numeric
// values and error semantics are gRPC's (api.Code.GRPC), and every RPC
// is a unary call carrying an optional client deadline. The framing,
// however, is a self-contained length-prefixed format rather than
// HTTP/2 — this repository builds without third-party dependencies —
// so swapping in google.golang.org/grpc later is a transport-only
// change: the service core (Service), the status mapping
// (internal/api) and the breaker semantics all carry over unchanged.
//
// A connection starts with the 8-byte client preface "HGRPC/2\x00".
// A server closes a connection whose preface differs — including the
// "HGRPC/1\x00" of the older layout, whose frames embedded the body in
// the header JSON — without reading or dispatching anything, so a
// gateway and its nodes must run the same protocol version. Every
// frame thereafter is
//
//	[type:1][stream id:8 BE][payload length:4 BE][payload]
//
// Frame types:
//
//	REQ (1) — opens stream id with one call. Envelope: header
//	          {"method","key","deadlineMs"}, the request as the body.
//	RES (4) — answers stream id. Envelope: header {"status","error"},
//	          the reply as the body on success, none on failure.
//
// Types 2 and 3 (MSG and EOS, the retired bidirectional streams) and
// every other type are protocol errors: a server drops the connection
// on one without dispatching it or anything after it, and a method
// name that is not in the table is NOT_FOUND.
//
// A REQ header's optional key binds the request to that home: for a
// method scoped to one home, the server overwrites the body's "home"
// with it before the call, the way the HTTP edge binds the path's {id},
// so the key a gateway routed by is always the key the node executes.
// The server ignores the key of a method not scoped to a home. The
// Client's typed stubs send no key, so their frames carry the body's
// home alone; a gateway's Client.CallRaw sends the key it routed by.
//
// An envelope is
//
//	[header length:4 BE][header JSON][body]
//
// The small header is JSON; the body is the request or response JSON
// exactly as one json.Marshal produced it, written verbatim and decoded
// once by json.Unmarshal from its slice of the frame — nothing
// re-scans it on either side, and a gateway relays it after scanning
// out only its routing key. The body runs to the end of the frame
// and may be empty. The headers are written by append encoders
// (scan.go) whose bytes are json.Marshal's. A REQ header of the
// canonical form the Client writes — its members in order, no space,
// plain ASCII strings — is read by a fixed-shape scanner, and the
// success RES header by a byte comparison; any other header falls back
// to json.Unmarshal, so the headers accepted and rejected, and the
// error messages, are encoding/json's. A header length that overruns
// the frame, or a header that is not valid JSON, is a malformed
// envelope: the server answers it with INVALID_ARGUMENT, and the client
// reports it as an INVALID_ARGUMENT error.
//
// Payloads are capped at 4 MiB (the daemon's HTTP body cap). A reader
// drops the connection on a larger frame. A server whose encoded
// response would exceed the cap sends RESOURCE_EXHAUSTED with no body
// in its place — the operation itself has run — and a client refuses
// an oversized request locally with RESOURCE_EXHAUSTED, sending
// nothing.
//
// Stream ids are client-chosen, strictly increasing, and multiplex
// concurrent RPCs over one connection; writes are serialized by a
// per-connection mutex on each side. The server runs each RPC on a
// reused worker goroutine, a new one only when none is idle, so a slow
// call never holds up a later one on the same connection.
package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"homeguard/internal/api"
)

// Frame types. 2 and 3, the retired stream frames, are protocol errors.
const (
	frameReq = 1 // open stream id: request envelope
	frameRes = 4 // answer stream id: status envelope (+ reply body)
)

// Preface is the 8-byte string a client writes immediately after
// connecting.
const Preface = "HGRPC/2\x00"

// maxFrame caps frame payloads and HTTP request bodies alike (SmartApp
// sources are a few KB; 4 MiB leaves generous headroom while keeping
// one request from exhausting the server's memory).
const maxFrame = 4 << 20

// envHdrLen is the size of an envelope's header-length prefix.
const envHdrLen = 4

// frame is one wire frame.
type frame struct {
	typ     byte
	id      uint64
	payload []byte
}

// reqHeader is the REQ envelope header: which method to invoke, the
// home key the request is bound to ("" = none; see the package doc)
// and the client's deadline for the whole RPC (0 = none; the server
// may still impose its own).
type reqHeader struct {
	Method     string `json:"method"`
	Key        string `json:"key,omitempty"`
	DeadlineMs int64  `json:"deadlineMs,omitempty"`
}

// resHeader is the RES envelope header: the gRPC status number and the
// shared error envelope when Status != 0.
type resHeader struct {
	Status int        `json:"status"`
	Error  *api.Error `json:"error,omitempty"`
}

// okResHeader is json.Marshal(resHeader{}), the header of every
// successful RES frame.
var okResHeader = []byte(`{"status":0}`)

// errFrameTooLarge types an oversized frame, or a message (what) that
// would need one: RESOURCE_EXHAUSTED, which no retry layer treats as
// transient.
func errFrameTooLarge(what string, n int) *api.Error {
	return api.Errorf(api.CodeResourceExhausted, "rpc: %s of %d bytes exceeds the %d byte frame cap", what, n, maxFrame)
}

// errBadEnvelope types a malformed envelope on either side.
func errBadEnvelope(what string, err error) *api.Error {
	return api.Wrap(api.CodeInvalidArgument, err, "rpc: bad "+what)
}

// envelopeSize is the payload length of an envelope.
func envelopeSize(hdr, body []byte) int { return envHdrLen + len(hdr) + len(body) }

// splitEnvelope cuts a REQ or RES payload into its header JSON and
// body. Both alias payload.
func splitEnvelope(payload []byte) (hdr, body []byte, err error) {
	if len(payload) < envHdrLen {
		return nil, nil, fmt.Errorf("envelope of %d bytes has no header length", len(payload))
	}
	n := binary.BigEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-envHdrLen) {
		return nil, nil, fmt.Errorf("header length %d overruns the %d byte envelope", n, len(payload))
	}
	return payload[envHdrLen : envHdrLen+n], payload[envHdrLen+n:], nil
}

// decodeEnvelope splits an envelope and unmarshals its header into
// hdr, returning the body.
func decodeEnvelope(payload []byte, hdr any) ([]byte, error) {
	h, body, err := splitEnvelope(payload)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(h, hdr); err != nil {
		return nil, err
	}
	return body, nil
}

// readFrame reads one frame, rejecting oversized payloads.
func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{typ: hdr[0], id: binary.BigEndian.Uint64(hdr[1:9])}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFrame {
		return frame{}, errFrameTooLarge("frame", int(n))
	}
	if n > 0 {
		f.payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// frameWriter serializes frame writes from concurrent RPC handlers
// onto one connection.
type frameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// writeEnvelope emits one frame whose payload is the envelope of the
// header JSON hdr and body, and flushes. The frame header, the
// envelope's header length and hdr go straight into the buffered
// writer ahead of body, so an envelope is never assembled in a buffer
// of its own; the bufio layer still coalesces a small frame into one
// syscall. An oversized payload is refused with errFrameTooLarge
// before anything is written.
func (fw *frameWriter) writeEnvelope(typ byte, id uint64, hdr, body []byte) error {
	n := envelopeSize(hdr, body)
	if n > maxFrame {
		return errFrameTooLarge("frame", n)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	pre := append(fw.w.AvailableBuffer(), typ)
	pre = binary.BigEndian.AppendUint64(pre, id)
	pre = binary.BigEndian.AppendUint32(pre, uint32(n))
	pre = binary.BigEndian.AppendUint32(pre, uint32(len(hdr)))
	pre = append(pre, hdr...)
	if _, err := fw.w.Write(pre); err != nil {
		return err
	}
	if _, err := fw.w.Write(body); err != nil {
		return err
	}
	return fw.w.Flush()
}
