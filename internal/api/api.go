// Package api is the transport-neutral wire surface of the HomeGuard
// enforcement edge: the typed error envelope, the status-code vocabulary
// and the JSON request/response shapes that cmd/homeguardd's HTTP
// handlers and internal/rpc's framed transport share verbatim.
//
// Both transports speak exactly the same envelope: an operation that
// fails yields one Error{Code, Message} value, the HTTP layer writes it
// as the JSON body {"error": {...}} with HTTPStatus(Code), and the RPC
// layer carries it in the response frame with the matching gRPC status
// number. A client therefore sees ErrAppNotInstalled as 404 over HTTP
// and NOT_FOUND over RPC — the same code string either way — and a
// parity test can compare the two transports field by field.
//
// The package also owns the DTO ↔ domain conversions (configuration
// parsing, threat rendering) that used to live ad hoc inside the daemon
// handlers, so adding a transport can never fork the wire format.
//
// The threat-bearing responses — InstallResponse, ReconfigureResponse,
// ThreatsResponse, SubmitAppsResponse and FindingsResponse — encode
// themselves with AppendJSON, and the edge writes those bytes instead
// of json.Marshal's. The error envelope (Error.AppendJSON) and any
// string (AppendString) encode the same way, for the RPC frame headers. The contract is byte identity: for every value
// json.Marshal accepts, AppendJSON appends exactly the bytes
// json.Marshal returns, string escaping included (HTML's <, > and &,
// control bytes, invalid UTF-8 as \ufffd, U+2028 and U+2029). A
// client therefore decodes either encoding alike, and the golden wire
// frames do not change. One exception is by design: a response built
// by SubmitAppsResponseOf, and its Feed, carry the revision's findings
// encoded when the response was built, so their Added and Resolved
// elements are read-only. Assigning a new slice is seen (it encodes
// afresh); editing an element in place is not.
package api

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"homeguard/internal/audit"
	"homeguard/internal/corpus"
	"homeguard/internal/detect"
	"homeguard/internal/envmodel"
	"homeguard/internal/fleet"
	"homeguard/internal/frontend"
	"homeguard/internal/rule"
)

// Code is a transport-neutral status code. The vocabulary (names and
// numeric values) is gRPC's, so the RPC transport maps one-to-one and
// the HTTP transport derives its status via HTTPStatus.
type Code string

// The status codes the edge actually produces. OK never appears in an
// Error; it is the wire form of "no error".
const (
	CodeOK                 Code = "OK"
	CodeCanceled           Code = "CANCELLED"
	CodeInvalidArgument    Code = "INVALID_ARGUMENT"
	CodeDeadlineExceeded   Code = "DEADLINE_EXCEEDED"
	CodeNotFound           Code = "NOT_FOUND"
	CodeAlreadyExists      Code = "ALREADY_EXISTS"
	CodeResourceExhausted  Code = "RESOURCE_EXHAUSTED"
	CodeFailedPrecondition Code = "FAILED_PRECONDITION"
	CodeOutOfRange         Code = "OUT_OF_RANGE"
	CodeInternal           Code = "INTERNAL"
	CodeUnavailable        Code = "UNAVAILABLE"
)

// GRPC returns the code's numeric gRPC status value.
func (c Code) GRPC() int {
	switch c {
	case CodeOK:
		return 0
	case CodeCanceled:
		return 1
	case CodeInvalidArgument:
		return 3
	case CodeDeadlineExceeded:
		return 4
	case CodeNotFound:
		return 5
	case CodeAlreadyExists:
		return 6
	case CodeResourceExhausted:
		return 8
	case CodeFailedPrecondition:
		return 9
	case CodeOutOfRange:
		return 11
	case CodeUnavailable:
		return 14
	default:
		return 13 // INTERNAL
	}
}

// HTTPStatus returns the HTTP status the JSON transport writes for the
// code. The mapping follows the conventional gRPC↔HTTP table, with
// FAILED_PRECONDITION as 422 (a well-formed request the service could
// not process — extraction failures) and OUT_OF_RANGE as 400.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeOK:
		return http.StatusOK
	case CodeCanceled:
		return 499 // client closed request (nginx convention)
	case CodeInvalidArgument, CodeOutOfRange:
		return http.StatusBadRequest
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeNotFound:
		return http.StatusNotFound
	case CodeAlreadyExists:
		return http.StatusConflict
	case CodeResourceExhausted:
		return http.StatusTooManyRequests
	case CodeFailedPrecondition:
		return http.StatusUnprocessableEntity
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Error is the typed error envelope both transports return. It
// implements error so service code can thread it through ordinary error
// returns, and it marshals to the exact JSON both wire formats carry.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs, when nonzero, hints how long the client should wait
	// before retrying (set by UNAVAILABLE responses from an open circuit
	// breaker).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`

	// cause is the wrapped underlying error, carried locally (never on
	// the wire) so errors.Is/As keep seeing through the envelope — the
	// RPC client wraps transport failures this way.
	cause error
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Unwrap exposes the wrapped cause (nil for wire-decoded errors).
func (e *Error) Unwrap() error { return e.cause }

// Errorf builds an Error with a formatted message.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Wrap builds an Error that carries err as its unwrappable cause, so
// callers can classify an error into the envelope without severing the
// errors.Is chain. A nil err maps to nil.
func Wrap(code Code, err error, msg string) *Error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Message: fmt.Sprintf("%s: %v", msg, err), cause: err}
}

// FromErr maps any error the service layer produces to the envelope:
// an *Error passes through, fleet sentinels map to their codes
// (ErrUnknownHome/ErrAppNotInstalled → NOT_FOUND, ErrAppInstalled and
// ErrHomeExists → ALREADY_EXISTS, ErrBadThreatIndex → OUT_OF_RANGE), context
// expiry maps to DEADLINE_EXCEEDED/CANCELLED, and anything else — in
// practice an extraction or detection failure on a well-formed request
// — becomes FAILED_PRECONDITION. Nil maps to nil.
func FromErr(err error) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	code := CodeFailedPrecondition
	switch {
	case errors.Is(err, fleet.ErrUnknownHome), errors.Is(err, fleet.ErrAppNotInstalled):
		code = CodeNotFound
	case errors.Is(err, fleet.ErrAppInstalled), errors.Is(err, fleet.ErrHomeExists):
		code = CodeAlreadyExists
	case errors.Is(err, fleet.ErrBadThreatIndex):
		code = CodeOutOfRange
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	}
	return &Error{Code: code, Message: err.Error()}
}

// ---------- request/response shapes ----------

// Config is the wire form of an installation configuration: four
// optional maps binding input names to devices, values, value lists and
// device types.
type Config struct {
	Devices     map[string]string   `json:"devices,omitempty"`
	Values      map[string]any      `json:"values,omitempty"`
	ValueLists  map[string][]string `json:"valueLists,omitempty"`
	DeviceTypes map[string]string   `json:"deviceTypes,omitempty"`
}

// ToDetect converts the wire config to the domain form. A nil receiver
// returns nil (type-level device identity). Non-integral or
// out-of-range numeric values are rejected: the rule domain is
// integral, and an implementation-dependent float→int64 conversion must
// not store garbage.
func (c *Config) ToDetect() (*detect.Config, *Error) {
	if c == nil {
		return nil, nil
	}
	cfg := detect.NewConfig()
	for k, v := range c.Devices {
		cfg.Devices[k] = v
	}
	for k, v := range c.Values {
		switch x := v.(type) {
		case string:
			cfg.Values[k] = rule.StrVal(x)
		case float64:
			if x != math.Trunc(x) {
				return nil, Errorf(CodeInvalidArgument,
					"config value %q: %v is not an integer (the rule domain is integral)", k, x)
			}
			// float64(1<<63) is exactly 2^63; anything below fits int64.
			if x < math.MinInt64 || x >= float64(1<<63) {
				return nil, Errorf(CodeInvalidArgument,
					"config value %q: %v overflows the integer domain", k, x)
			}
			cfg.Values[k] = rule.IntVal(int64(x))
		case bool:
			cfg.Values[k] = rule.BoolVal(x)
		default:
			return nil, Errorf(CodeInvalidArgument, "config value %q: unsupported type %T", k, v)
		}
	}
	for k, v := range c.ValueLists {
		cfg.ValueLists[k] = v
	}
	for k, v := range c.DeviceTypes {
		cfg.DeviceTypes[k] = envmodel.DeviceType(v)
	}
	return cfg, nil
}

// InstallRequest asks to install one app into one home. Home comes from
// the URL path over HTTP and from the body over RPC. Exactly one of
// Source (raw SmartApp Groovy) and Corpus (a built-in corpus app name)
// must be set.
type InstallRequest struct {
	Home   string  `json:"home,omitempty"`
	Source string  `json:"source,omitempty"`
	Corpus string  `json:"corpus,omitempty"`
	Config *Config `json:"config,omitempty"`
}

// ResolveSource validates the source/corpus pair and returns the Groovy
// source to install.
func (r *InstallRequest) ResolveSource() (string, *Error) {
	switch {
	case r.Source != "" && r.Corpus != "":
		return "", Errorf(CodeInvalidArgument, "set exactly one of source and corpus")
	case r.Source == "" && r.Corpus == "":
		return "", Errorf(CodeInvalidArgument, "set exactly one of source and corpus")
	case r.Corpus != "":
		app, ok := corpus.Get(r.Corpus)
		if !ok {
			return "", Errorf(CodeNotFound, "unknown corpus app %q", r.Corpus)
		}
		return app.Source, nil
	}
	return r.Source, nil
}

// Threat is the wire form of one detected cross-app interference.
type Threat struct {
	// Index is this threat's position in the home's threat log, usable
	// with accept requests. -1 in responses that carry no log positions.
	Index    int    `json:"index"`
	Kind     string `json:"kind"`
	Class    string `json:"class"`
	Rule1    string `json:"rule1"`
	Rule2    string `json:"rule2"`
	Property string `json:"property,omitempty"`
	Note     string `json:"note,omitempty"`
	Text     string `json:"text"`
}

// ThreatOf renders one threat with its log index (-1 for none).
func ThreatOf(t detect.Threat, index int) Threat {
	return threatOf(t, index, frontend.DescribeThreat(t), t.R1.QualifiedID(), t.R2.QualifiedID())
}

// threatOf is ThreatOf with the threat's text and rule IDs already
// rendered.
func threatOf(t detect.Threat, index int, text, id1, id2 string) Threat {
	return Threat{
		Index:    index,
		Kind:     string(t.Kind),
		Class:    t.Kind.Class(),
		Rule1:    id1,
		Rule2:    id2,
		Property: string(t.Property),
		Note:     t.Note,
		Text:     text,
	}
}

// logIndex is the log index of the i-th threat of a response whose
// first threat is log entry logBase, or -1 when logBase is negative.
func logIndex(logBase, i int) int {
	if logBase < 0 {
		return -1
	}
	return logBase + i
}

// ThreatsOf renders threats with log indices starting at logBase; pass
// a negative logBase for responses without log positions. Every text
// and rule ID is a substring of one string the read renders
// (frontend.RenderThreats), so a read allocates that string and the
// slice it returns.
func ThreatsOf(ts []detect.Threat, logBase int) []Threat {
	out := make([]Threat, len(ts))
	frontend.RenderThreats(ts, func(i int, text, id1, id2 string) {
		out[i] = threatOf(ts[i], logIndex(logBase, i), text, id1, id2)
	})
	return out
}

// InstallResponse is the install verdict both transports return.
type InstallResponse struct {
	HomeID   string   `json:"homeId"`
	App      string   `json:"app"`
	Rules    []string `json:"rules"`
	Threats  []Threat `json:"threats"`
	Chains   []string `json:"chains,omitempty"`
	Report   string   `json:"report"`
	Warnings []string `json:"warnings,omitempty"`
}

// InstallResponseOf converts a fleet install result to the wire form.
// The rule, threat and chain texts and the threats' rule IDs are the
// lines of the result's report, which fleet.Install rendered once.
func InstallResponseOf(res *fleet.InstallResult) *InstallResponse {
	lines := res.Lines
	threats := make([]Threat, len(res.Threats))
	for i, t := range res.Threats {
		threats[i] = threatOf(t, logIndex(res.ThreatLogBase, i), lines.Threats[i],
			lines.ThreatRules[2*i], lines.ThreatRules[2*i+1])
	}
	return &InstallResponse{
		HomeID:   res.HomeID,
		App:      res.App.Name,
		Rules:    lines.Rules,
		Threats:  threats,
		Chains:   lines.Chains,
		Report:   res.Report,
		Warnings: res.Warnings,
	}
}

// ReconfigureRequest updates one installed app's configuration.
// Omitting Config keeps the current bindings and just re-runs detection.
type ReconfigureRequest struct {
	Home   string  `json:"home,omitempty"`
	App    string  `json:"app"`
	Config *Config `json:"config,omitempty"`
}

// ReconfigureResponse carries the threats under the new configuration.
type ReconfigureResponse struct {
	HomeID  string   `json:"homeId"`
	App     string   `json:"app"`
	Threats []Threat `json:"threats"`
}

// ReconfigureResponseOf converts a fleet reconfigure result.
func ReconfigureResponseOf(res *fleet.ReconfigureResult) *ReconfigureResponse {
	return &ReconfigureResponse{
		HomeID:  res.HomeID,
		App:     res.App,
		Threats: ThreatsOf(res.Threats, res.ThreatLogBase),
	}
}

// AcceptRequest records user-approved threats by threat-log index.
type AcceptRequest struct {
	Home    string `json:"home,omitempty"`
	Threats []int  `json:"threats"`
}

// AcceptResponse acknowledges accepted threats.
type AcceptResponse struct {
	HomeID   string `json:"homeId"`
	Accepted int    `json:"accepted"`
}

// ThreatsRequest reads a home's threat log (Active selects the
// incremental ledger's current set instead of the append-only history).
type ThreatsRequest struct {
	Home   string `json:"home,omitempty"`
	Active bool   `json:"active,omitempty"`
}

// ThreatsResponse is the threat log (or active set) of one home.
type ThreatsResponse struct {
	HomeID  string   `json:"homeId"`
	Active  bool     `json:"active,omitempty"`
	Threats []Threat `json:"threats"`
}

// AppsRequest asks for one home's installed apps.
type AppsRequest struct {
	Home string `json:"home,omitempty"`
}

// AppsResponse lists one home's installed apps in install order.
type AppsResponse struct {
	HomeID string   `json:"homeId"`
	Apps   []string `json:"apps"`
}

// InstallBatchRequest installs several apps into one home in input
// order (extractions prewarm in parallel through the shared cache).
type InstallBatchRequest struct {
	Home  string        `json:"home,omitempty"`
	Items []InstallItem `json:"items"`
}

// InstallItem is one app of a batch install (no home field: the
// batch's home applies).
type InstallItem struct {
	Source string  `json:"source,omitempty"`
	Corpus string  `json:"corpus,omitempty"`
	Config *Config `json:"config,omitempty"`
}

// ResolveSource validates the item's source/corpus pair.
func (it *InstallItem) ResolveSource() (string, *Error) {
	r := InstallRequest{Source: it.Source, Corpus: it.Corpus}
	return r.ResolveSource()
}

// BatchItemResult is one batch item's outcome: exactly one of Result
// and Error is set.
type BatchItemResult struct {
	Result *InstallResponse `json:"result,omitempty"`
	Error  *Error           `json:"error,omitempty"`
}

// InstallBatchResponse is the per-item outcome list, in input order.
type InstallBatchResponse struct {
	HomeID  string            `json:"homeId"`
	Results []BatchItemResult `json:"results"`
}

// StoreApp is one store submission for the incremental auditor: exactly
// one of Source/Corpus, plus an optional name override (a name already
// in the store makes the submission an update) and install-time config.
type StoreApp struct {
	Name   string  `json:"name,omitempty"`
	Source string  `json:"source,omitempty"`
	Corpus string  `json:"corpus,omitempty"`
	Config *Config `json:"config,omitempty"`
}

// ResolveSource validates the app's source/corpus pair.
func (s *StoreApp) ResolveSource() (string, *Error) {
	r := InstallRequest{Source: s.Source, Corpus: s.Corpus}
	return r.ResolveSource()
}

// SubmitAppsRequest applies one store batch — submits/updates plus
// removes — to the incremental auditor. At least one of the two lists
// must be non-empty.
type SubmitAppsRequest struct {
	Upserts []StoreApp `json:"upserts,omitempty"`
	Removes []string   `json:"removes,omitempty"`
}

// Finding is the wire form of one store finding: a threat attributed to
// its app pair (App1 is the earlier-installed side; equal to App2 for
// intra-app findings).
type Finding struct {
	App1   string `json:"app1"`
	App2   string `json:"app2"`
	Threat Threat `json:"threat"`
}

// FindingOf renders one store finding (findings carry no log indices).
func FindingOf(f audit.Finding) Finding {
	return Finding{App1: f.App1, App2: f.App2, Threat: ThreatOf(f.Threat, -1)}
}

// FindingsOf renders a finding list, keeping order.
func FindingsOf(fs []audit.Finding) []Finding {
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, FindingOf(f))
	}
	return out
}

// SubmitAppsResponse is the revision one applied batch produced.
type SubmitAppsResponse struct {
	Rev        uint64            `json:"rev"`
	Apps       int               `json:"apps"`
	Pairs      int               `json:"pairs"`
	Added      []Finding         `json:"added,omitempty"`
	Resolved   []Finding         `json:"resolved,omitempty"`
	Errors     map[string]*Error `json:"errors,omitempty"`
	DurationMs float64           `json:"durationMs"`

	// delta is Added and Resolved encoded, when SubmitAppsResponseOf
	// built the response.
	delta *encodedDelta
}

// SubmitAppsResponseOf converts an auditor revision to the wire form,
// encoding the revision's findings once for the response and its Feed.
// The findings are read-only from here on (see the package doc).
func SubmitAppsResponseOf(rev *audit.Revision) *SubmitAppsResponse {
	out := &SubmitAppsResponse{
		Rev:        rev.Rev,
		Apps:       rev.Apps,
		Pairs:      rev.Pairs,
		Added:      FindingsOf(rev.Added),
		Resolved:   FindingsOf(rev.Resolved),
		DurationMs: float64(rev.Duration.Microseconds()) / 1000.0,
	}
	out.delta = encodeDelta(out.Added, out.Resolved)
	for name, err := range rev.Errors {
		if out.Errors == nil {
			out.Errors = map[string]*Error{}
		}
		if errors.Is(err, audit.ErrUnknownApp) {
			out.Errors[name] = Errorf(CodeNotFound, "%v", err)
		} else {
			out.Errors[name] = FromErr(err)
		}
	}
	return out
}

// Feed is the findings feed of exactly this revision: since Rev-1, its
// Added and Resolved. The feed shares the response's findings slices
// and their encoding, so encoding it copies bytes SubmitApps encoded.
func (r *SubmitAppsResponse) Feed() *FindingsResponse {
	return &FindingsResponse{Rev: r.Rev, Since: r.Rev - 1, Added: r.Added, Resolved: r.Resolved, delta: r.delta}
}

// FindingsRequest reads the store findings feed from a revision the
// client last saw (0 for everything).
type FindingsRequest struct {
	Since uint64 `json:"since,omitempty"`
}

// FindingsResponse is the findings feed: the delta between Since and
// Rev, or — when Reset is set because Since aged out of the retained
// history — the full active set in Added.
type FindingsResponse struct {
	Rev      uint64    `json:"rev"`
	Since    uint64    `json:"since"`
	Reset    bool      `json:"reset,omitempty"`
	Added    []Finding `json:"added,omitempty"`
	Resolved []Finding `json:"resolved,omitempty"`

	// delta is Added and Resolved encoded, for a SubmitAppsResponse.Feed.
	delta *encodedDelta
}

// FindingsResponseOf converts an auditor feed to the wire form.
func FindingsResponseOf(f *audit.Feed) *FindingsResponse {
	return &FindingsResponse{
		Rev:      f.Rev,
		Since:    f.Since,
		Reset:    f.Reset,
		Added:    FindingsOf(f.Added),
		Resolved: FindingsOf(f.Resolved),
	}
}

// ---------- cluster shapes ----------

// PingRequest is the gateway heartbeat probe. Empty today; a struct so
// the wire shape can grow (e.g. the ring version the prober holds)
// without a method change.
type PingRequest struct{}

// PingResponse identifies the probed node and its current load.
type PingResponse struct {
	// Node is the node's -node-id (empty when the daemon runs unnamed).
	Node string `json:"node,omitempty"`
	// Homes is the number of homes the node currently manages.
	Homes int `json:"homes"`
}

// MigrateHomeRequest asks a node to export one home and detach it: the
// home's durable state is serialized, a removal record is logged, and
// the node stops serving the home. The returned snapshot is what
// AdoptHome on the new owner consumes.
type MigrateHomeRequest struct {
	Home string `json:"home"`
}

// MigrateHomeResponse carries the detached home's serialized state.
type MigrateHomeResponse struct {
	HomeID string `json:"homeId"`
	// Apps is the number of apps the exported home held.
	Apps int `json:"apps"`
	// Snapshot is the snapcodec-encoded single-home section
	// (fleet.ExportHome): the home's op history — installs, with the
	// app table they reference, reconfigures and accepts, each with its
	// resolved config — from which the adopting node rebuilds the
	// threat log, ledger and accepted threats.
	Snapshot []byte `json:"snapshot"`
}

// AdoptHomeRequest asks a node to import a home exported by MigrateHome
// (or rebuilt by the gateway's failover path).
type AdoptHomeRequest struct {
	Home     string `json:"home"`
	Snapshot []byte `json:"snapshot"`
}

// AdoptHomeResponse acknowledges the adopted home.
type AdoptHomeResponse struct {
	HomeID string `json:"homeId"`
	// Apps is the number of apps the imported home holds.
	Apps int `json:"apps"`
}
