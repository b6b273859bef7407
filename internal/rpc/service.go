package rpc

import (
	"context"
	"fmt"
	"sync/atomic"

	"homeguard/internal/api"
	"homeguard/internal/audit"
	"homeguard/internal/detect"
	"homeguard/internal/fleet"
)

// Pipeline stages guarded by independent circuit breakers. Extraction
// and detection fail independently — a pathological Groovy corpus can
// wedge symbolic execution while cached-app detection stays healthy,
// and a dense home can blow detection budgets while extraction is fine
// — so each stage sheds on its own.
const (
	StageExtract = "extract"
	StageDetect  = "detect"
)

// ServiceOptions tune the transport-shared service core.
type ServiceOptions struct {
	// Breaker configures both stage breakers.
	Breaker BreakerOptions
	// Auditor, when set, serves the store endpoints (SubmitApps,
	// Findings). Nil edges reject store calls with FAILED_PRECONDITION.
	Auditor *audit.Auditor
	// NodeID names this node in Ping responses (homeguardd -node-id) so
	// the gateway's heartbeat can verify it is probing who it thinks.
	NodeID string
}

// Service is the transport-neutral core of the enforcement edge: the
// HTTP routes (RegisterHTTP) and the RPC dispatch both call these
// methods through the method table (Serve), so verdicts, error codes and
// breaker behavior are identical on either wire. Methods take and return the
// api package's DTOs and report failures as *api.Error — the envelope
// each transport writes verbatim.
type Service struct {
	fleet   *fleet.Fleet
	auditor *audit.Auditor
	extract *Breaker
	detect  *Breaker
	node    string

	// lastFeed is the feed of the newest revision SubmitApps answered,
	// since its predecessor, with the findings encoded once for both: a
	// Findings read of exactly that revision relays it. Only this one
	// revision's encoding is kept; the next one replaces it.
	lastFeed atomic.Pointer[api.FindingsResponse]

	// stages runs the guarded stage ops (runStage).
	stages workers

	// inject, when set, runs before each guarded stage and its error
	// (if any) replaces the stage — the test hook for breaker behavior.
	inject func(stage string) error
}

// NewService wraps a fleet with per-stage circuit breakers.
func NewService(f *fleet.Fleet, opts ServiceOptions) *Service {
	return &Service{
		fleet:   f,
		auditor: opts.Auditor,
		extract: NewBreaker(opts.Breaker),
		detect:  NewBreaker(opts.Breaker),
		node:    opts.NodeID,
	}
}

// Serve is the node side of Handler: it runs m through the method
// table on the raw request body, binding key as the request's home.
func (s *Service) Serve(ctx context.Context, m *Method, key string, body []byte) ([]byte, *api.Error) {
	return m.serve(ctx, s, key, body)
}

// Auditor returns the store auditor (nil when the edge serves none).
func (s *Service) Auditor() *audit.Auditor { return s.auditor }

// Fleet returns the wrapped fleet.
func (s *Service) Fleet() *fleet.Fleet { return s.fleet }

// BreakerState reports the named stage's breaker state (for /metrics
// and tests).
func (s *Service) BreakerState(stage string) string {
	if b := s.breaker(stage); b != nil {
		return b.State()
	}
	return ""
}

func (s *Service) breaker(stage string) *Breaker {
	switch stage {
	case StageExtract:
		return s.extract
	case StageDetect:
		return s.detect
	}
	return nil
}

// breakerCounts reports whether an error indicates stage ill-health
// (and so counts toward opening the breaker). Client-caused errors —
// unknown homes, unparsable sources, bad configs — mean the stage did
// its job and count as successes.
func breakerCounts(e *api.Error) bool {
	if e == nil {
		return false
	}
	switch e.Code {
	case api.CodeInternal, api.CodeDeadlineExceeded, api.CodeUnavailable:
		return true
	}
	return false
}

// runStage executes op under the stage's breaker and the RPC deadline.
// The op runs on a worker of the service's pool (workers); a stalled
// op holds only its own worker. A shed request fails fast
// with UNAVAILABLE and a retry hint; an op that outlives ctx returns
// DEADLINE_EXCEEDED (the op is abandoned: it completes in the
// background on its worker, which then goes back to the pool, and an
// extraction still warms the shared cache); a panic inside op becomes
// INTERNAL. Timeouts, panics and internal errors feed the breaker;
// client errors reset it.
func (s *Service) runStage(ctx context.Context, stage string, b *Breaker, op func() error) *api.Error {
	if err := ctx.Err(); err != nil {
		return api.FromErr(err)
	}
	if aerr := b.Admit(stage + " stage"); aerr != nil {
		return aerr
	}
	done := make(chan *api.Error, 1)
	s.stages.Go(func() {
		defer func() {
			if r := recover(); r != nil {
				done <- api.Errorf(api.CodeInternal, "%s stage panic: %v", stage, r)
			}
		}()
		if s.inject != nil {
			if err := s.inject(stage); err != nil {
				done <- api.FromErr(err)
				return
			}
		}
		done <- api.FromErr(op())
	})
	select {
	case aerr := <-done:
		if breakerCounts(aerr) {
			b.Failure()
		} else {
			b.Success()
		}
		return aerr
	case <-ctx.Done():
		b.Failure()
		return api.FromErr(ctx.Err())
	}
}

// Install extracts and installs one app into one home, returning the
// detection verdict. Extraction runs first under the extract breaker
// (Fleet.Extract, through the fleet's shared content-addressed cache),
// then the rest of the install runs on its result under the detect
// breaker (Fleet.InstallExtracted).
func (s *Service) Install(ctx context.Context, req *api.InstallRequest) (*api.InstallResponse, *api.Error) {
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	src, aerr := req.ResolveSource()
	if aerr != nil {
		return nil, aerr
	}
	cfg, aerr := req.Config.ToDetect()
	if aerr != nil {
		return nil, aerr
	}
	var x fleet.Extraction
	if aerr := s.runStage(ctx, StageExtract, s.extract, func() error {
		var err error
		if x, err = s.fleet.Extract(ctx, req.Home, src); err != nil {
			return fmt.Errorf("extraction failed: %w", err)
		}
		return nil
	}); aerr != nil {
		return nil, aerr
	}
	var res *fleet.InstallResult
	if aerr := s.runStage(ctx, StageDetect, s.detect, func() error {
		r, err := s.fleet.InstallExtracted(ctx, x, cfg)
		if err != nil {
			return err
		}
		res = r
		return nil
	}); aerr != nil {
		return nil, aerr
	}
	return api.InstallResponseOf(res), nil
}

// InstallBatch installs several apps into one home. The parallel
// extraction prewarm runs as one extract-breaker stage, the in-order
// installs as one detect-breaker stage; item-level failures (bad
// source, unparsable app) are reported per item and neither stop the
// batch nor trip a breaker.
func (s *Service) InstallBatch(ctx context.Context, req *api.InstallBatchRequest) (*api.InstallBatchResponse, *api.Error) {
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	if len(req.Items) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "batch has no items")
	}
	resp := &api.InstallBatchResponse{
		HomeID:  req.Home,
		Results: make([]api.BatchItemResult, len(req.Items)),
	}
	items := make([]fleet.BatchItem, len(req.Items))
	resolved := make([]bool, len(req.Items))
	for i := range req.Items {
		src, aerr := req.Items[i].ResolveSource()
		if aerr != nil {
			resp.Results[i] = api.BatchItemResult{Error: aerr}
			continue
		}
		cfg, aerr := req.Items[i].Config.ToDetect()
		if aerr != nil {
			resp.Results[i] = api.BatchItemResult{Error: aerr}
			continue
		}
		items[i] = fleet.BatchItem{Source: src, Config: cfg}
		resolved[i] = true
	}
	// The resolvable subset runs through the fleet's batch path (which
	// prewarms extraction in parallel), guarded as one detect stage;
	// extraction health is accounted by the Install path — a wedged
	// extractor times the whole batch out and trips detect here, which
	// still sheds batches.
	sub := make([]fleet.BatchItem, 0, len(items))
	for i := range items {
		if resolved[i] {
			sub = append(sub, items[i])
		}
	}
	if len(sub) > 0 {
		var results []fleet.BatchResult
		if aerr := s.runStage(ctx, StageDetect, s.detect, func() error {
			results = s.fleet.InstallBatch(ctx, req.Home, sub)
			return nil
		}); aerr != nil {
			return nil, aerr
		}
		j := 0
		for i := range items {
			if !resolved[i] {
				continue
			}
			br := results[j]
			j++
			if br.Err != nil {
				resp.Results[i] = api.BatchItemResult{Error: api.FromErr(br.Err)}
			} else {
				resp.Results[i] = api.BatchItemResult{Result: api.InstallResponseOf(br.Result)}
			}
		}
	}
	return resp, nil
}

// Reconfigure updates one installed app's configuration and re-runs
// detection under the detect breaker (no extraction stage: the app's
// rules are already extracted).
func (s *Service) Reconfigure(ctx context.Context, req *api.ReconfigureRequest) (*api.ReconfigureResponse, *api.Error) {
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	if req.App == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "app is required")
	}
	cfg, aerr := req.Config.ToDetect()
	if aerr != nil {
		return nil, aerr
	}
	var res *fleet.ReconfigureResult
	if aerr := s.runStage(ctx, StageDetect, s.detect, func() error {
		r, err := s.fleet.Reconfigure(ctx, req.Home, req.App, cfg)
		if err != nil {
			return err
		}
		res = r
		return nil
	}); aerr != nil {
		return nil, aerr
	}
	return api.ReconfigureResponseOf(res), nil
}

// Threats reads one home's threat log, or its active (ledger) set when
// req.Active is set. Reads are cheap and skip the breakers.
func (s *Service) Threats(ctx context.Context, req *api.ThreatsRequest) (*api.ThreatsResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	var (
		ts  []detect.Threat
		err error
	)
	if req.Active {
		ts, err = s.fleet.ActiveThreats(req.Home)
	} else {
		ts, err = s.fleet.Threats(req.Home)
	}
	if err != nil {
		return nil, api.FromErr(err)
	}
	logBase := 0
	if req.Active {
		logBase = -1 // active-set entries carry no log positions
	}
	return &api.ThreatsResponse{
		HomeID:  req.Home,
		Active:  req.Active,
		Threats: api.ThreatsOf(ts, logBase),
	}, nil
}

// Accept records user-approved threats by threat-log index.
func (s *Service) Accept(ctx context.Context, req *api.AcceptRequest) (*api.AcceptResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	if len(req.Threats) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "no threat indices given")
	}
	if err := s.fleet.AcceptByIndex(req.Home, req.Threats...); err != nil {
		return nil, api.FromErr(err)
	}
	return &api.AcceptResponse{HomeID: req.Home, Accepted: len(req.Threats)}, nil
}

// SubmitApps applies one batch of store submits/updates/removes to the
// incremental auditor and returns the resulting revision. The whole
// batch — extraction of the changed apps plus the delta re-detection —
// runs as one detect-breaker stage: per-app failures (bad sources,
// unknown removes) are reported in the revision's error map and count
// as stage successes, while panics and timeouts shed as usual.
func (s *Service) SubmitApps(ctx context.Context, req *api.SubmitAppsRequest) (*api.SubmitAppsResponse, *api.Error) {
	if s.auditor == nil {
		return nil, api.Errorf(api.CodeFailedPrecondition, "this edge serves no app store")
	}
	if len(req.Upserts) == 0 && len(req.Removes) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "batch has no upserts and no removes")
	}
	batch := audit.Batch{Removes: req.Removes}
	for i := range req.Upserts {
		src, aerr := req.Upserts[i].ResolveSource()
		if aerr != nil {
			return nil, aerr
		}
		cfg, aerr := req.Upserts[i].Config.ToDetect()
		if aerr != nil {
			return nil, aerr
		}
		batch.Upserts = append(batch.Upserts, audit.App{
			Name:   req.Upserts[i].Name,
			Source: src,
			Config: cfg,
		})
	}
	var rev *audit.Revision
	if aerr := s.runStage(ctx, StageDetect, s.detect, func() error {
		r, err := s.auditor.Apply(batch)
		if err != nil {
			return err
		}
		rev = r
		return nil
	}); aerr != nil {
		return nil, aerr
	}
	resp := api.SubmitAppsResponseOf(rev)
	feed := resp.Feed()
	for cur := s.lastFeed.Load(); cur == nil || cur.Rev < feed.Rev; cur = s.lastFeed.Load() {
		if s.lastFeed.CompareAndSwap(cur, feed) {
			break
		}
	}
	return resp, nil
}

// Findings reads the store findings feed from req.Since. Reads are
// cheap and skip the breakers. A feed that is exactly the revision
// SubmitApps answered last (not a Reset, since its predecessor) is
// that answer's feed, whose findings are already encoded; any other
// feed is rendered here. A relayed feed shares its findings slices with
// that answer and every other reader of the revision, so callers treat
// them as read-only.
func (s *Service) Findings(ctx context.Context, req *api.FindingsRequest) (*api.FindingsResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if s.auditor == nil {
		return nil, api.Errorf(api.CodeFailedPrecondition, "this edge serves no app store")
	}
	feed := s.auditor.FindingsSince(req.Since)
	if last := s.lastFeed.Load(); last != nil && !feed.Reset && feed.Since+1 == feed.Rev && last.Rev == feed.Rev {
		relay := *last
		return &relay, nil
	}
	return api.FindingsResponseOf(feed), nil
}

// Ping answers the gateway heartbeat with the node's identity and home
// count. It deliberately touches no breaker and no home lock (NumHomes
// takes only shard read-locks), so a node shedding work still answers
// its heartbeat — health and load-shedding are separate signals.
func (s *Service) Ping(ctx context.Context) (*api.PingResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	return &api.PingResponse{Node: s.node, Homes: s.fleet.NumHomes()}, nil
}

// MigrateHome exports one home's durable state and detaches it from
// this node: after a successful return the home is gone here (requests
// for it fail NOT_FOUND) and the snapshot is the caller's to hand to
// AdoptHome on the new owner. The detach is WAL-logged before the
// response, so a crash between migrate and adopt never resurrects the
// home on the old owner.
func (s *Service) MigrateHome(ctx context.Context, req *api.MigrateHomeRequest) (*api.MigrateHomeResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	blob, apps, err := s.fleet.DetachHome(req.Home)
	if err != nil {
		return nil, api.FromErr(err)
	}
	return &api.MigrateHomeResponse{HomeID: req.Home, Apps: apps, Snapshot: blob}, nil
}

// AdoptHome imports a home exported by MigrateHome. Adopting a home ID
// this node already serves fails ALREADY_EXISTS (a retried adopt after
// a success must not double-apply).
func (s *Service) AdoptHome(ctx context.Context, req *api.AdoptHomeRequest) (*api.AdoptHomeResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if req.Home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	if len(req.Snapshot) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "snapshot is required")
	}
	apps, err := s.fleet.ImportHome(req.Home, req.Snapshot)
	if err != nil {
		return nil, api.FromErr(err)
	}
	return &api.AdoptHomeResponse{HomeID: req.Home, Apps: apps}, nil
}

// Apps lists one home's installed apps in install order.
func (s *Service) Apps(ctx context.Context, home string) (*api.AppsResponse, *api.Error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromErr(err)
	}
	if home == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "home is required")
	}
	apps, err := s.fleet.Apps(home)
	if err != nil {
		return nil, api.FromErr(err)
	}
	return &api.AppsResponse{HomeID: home, Apps: apps}, nil
}
