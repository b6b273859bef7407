package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/corpus"
	"homeguard/internal/fleet"
	"homeguard/internal/obs"
	"homeguard/internal/snapcodec"
)

// startEdge boots a fleet + service + server on a loopback listener
// and returns a connected client. Everything shuts down via t.Cleanup.
func startEdge(t *testing.T, svcOpts ServiceOptions, srvOpts ServerOptions) (*Service, *Client) {
	t.Helper()
	f := fleet.New(fleet.Options{Shards: 4})
	svc := NewService(f, svcOpts)
	srv := NewServer(svc, srvOpts)
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
	return svc, client
}

func codeOf(t *testing.T, err error) api.Code {
	t.Helper()
	var aerr *api.Error
	if !errors.As(err, &aerr) {
		t.Fatalf("error %v (%T) is not the api envelope", err, err)
	}
	return aerr.Code
}

func TestRPCInstallReconfigureThreats(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()

	res, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
	if err != nil {
		t.Fatalf("install ComfortTV: %v", err)
	}
	if res.App != "ComfortTV" || len(res.Threats) != 0 {
		t.Errorf("first install = app %q, %d threats; want ComfortTV, 0", res.App, len(res.Threats))
	}
	res, err = client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ColdDefender"})
	if err != nil {
		t.Fatalf("install ColdDefender: %v", err)
	}
	if len(res.Threats) == 0 {
		t.Fatal("ColdDefender install reported no threats over RPC")
	}
	for _, th := range res.Threats {
		if th.Kind == "" || th.Text == "" || th.Rule1 == "" || th.Rule2 == "" {
			t.Errorf("threat missing fields: %+v", th)
		}
	}

	// The threat log agrees with the install verdicts.
	ts, err := client.Threats(ctx, &api.ThreatsRequest{Home: "h1"})
	if err != nil {
		t.Fatalf("threats: %v", err)
	}
	if len(ts.Threats) != len(res.Threats) {
		t.Errorf("threat log has %d entries, install reported %d", len(ts.Threats), len(res.Threats))
	}
	for i, th := range ts.Threats {
		if th.Index != i {
			t.Errorf("log entry %d has index %d", i, th.Index)
		}
	}

	// Reconfigure under an explicit empty config reproduces the verdict.
	rc, err := client.Reconfigure(ctx, &api.ReconfigureRequest{
		Home: "h1", App: "ColdDefender", Config: &api.Config{},
	})
	if err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if len(rc.Threats) != len(res.Threats) {
		t.Errorf("reconfigure reported %d threats, want %d", len(rc.Threats), len(res.Threats))
	}
	// Reconfigure threats carry log indices after the install ones.
	if len(rc.Threats) > 0 && rc.Threats[0].Index != len(res.Threats) {
		t.Errorf("reconfigure threat index = %d, want %d", rc.Threats[0].Index, len(res.Threats))
	}

	// Accept one by log index, then apps.
	if _, err := client.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{0}}); err != nil {
		t.Fatalf("accept: %v", err)
	}
	apps, err := client.Apps(ctx, "h1")
	if err != nil || len(apps.Apps) != 2 {
		t.Errorf("apps = %v, %v; want 2 apps", apps, err)
	}
}

// TestRPCErrorCodes pins the gRPC status mapping of every error class
// the edge produces.
func TestRPCErrorCodes(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()
	if _, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		err  error
		want api.Code
	}{
		{"unknown corpus", func() error {
			_, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"})
			return err
		}(), api.CodeNotFound},
		{"duplicate install", func() error {
			_, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
			return err
		}(), api.CodeAlreadyExists},
		{"neither source nor corpus", func() error {
			_, err := client.Install(ctx, &api.InstallRequest{Home: "h1"})
			return err
		}(), api.CodeInvalidArgument},
		{"unparsable source", func() error {
			_, err := client.Install(ctx, &api.InstallRequest{Home: "h2", Source: "not groovy {{{"})
			return err
		}(), api.CodeFailedPrecondition},
		{"bad config value", func() error {
			_, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ColdDefender",
				Config: &api.Config{Values: map[string]any{"x": 1.5}}})
			return err
		}(), api.CodeInvalidArgument},
		{"reconfigure unknown app", func() error {
			_, err := client.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "Ghost"})
			return err
		}(), api.CodeNotFound},
		{"reconfigure unknown home", func() error {
			_, err := client.Reconfigure(ctx, &api.ReconfigureRequest{Home: "ghost", App: "X"})
			return err
		}(), api.CodeNotFound},
		{"threats unknown home", func() error {
			_, err := client.Threats(ctx, &api.ThreatsRequest{Home: "ghost"})
			return err
		}(), api.CodeNotFound},
		{"accept out of range", func() error {
			_, err := client.Accept(ctx, &api.AcceptRequest{Home: "h1", Threats: []int{99}})
			return err
		}(), api.CodeOutOfRange},
		{"unknown method", client.Call(ctx, "Nope", struct{}{}, nil), api.CodeNotFound},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if got := codeOf(t, tc.err); got != tc.want {
			t.Errorf("%s: code %s, want %s (%v)", tc.name, got, tc.want, tc.err)
		}
	}
}

func TestRPCInstallBatchPerItemErrors(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	resp, err := client.InstallBatch(context.Background(), &api.InstallBatchRequest{
		Home: "h1",
		Items: []api.InstallItem{
			{Corpus: "ComfortTV"},
			{Corpus: "NoSuchApp"},
			{Corpus: "ColdDefender"},
			{}, // neither source nor corpus
		},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != nil || r.Result == nil || r.Result.App != "ComfortTV" {
		t.Errorf("item 0 = %+v, want ComfortTV success", r)
	}
	if r := resp.Results[1]; r.Error == nil || r.Error.Code != api.CodeNotFound {
		t.Errorf("item 1 error = %+v, want NOT_FOUND", r.Error)
	}
	if r := resp.Results[2]; r.Error != nil || r.Result == nil || len(r.Result.Threats) == 0 {
		t.Errorf("item 2 = %+v, want ColdDefender threats (batch continues past failures)", r)
	}
	if r := resp.Results[3]; r.Error == nil || r.Error.Code != api.CodeInvalidArgument {
		t.Errorf("item 3 error = %+v, want INVALID_ARGUMENT", r.Error)
	}
}

// TestRPCInstallLooksUpOnce: an install hashes its source and looks it
// up in the extraction cache once across its extract and detect
// stages, and a batch once per item.
func TestRPCInstallLooksUpOnce(t *testing.T) {
	svc, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()
	if _, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Fleet().Cache().Stats(); st.Lookups != 1 || st.Misses != 1 {
		t.Errorf("one install: %d lookups, %d misses; want 1 and 1", st.Lookups, st.Misses)
	}
	items := []api.InstallItem{{Corpus: "ColdDefender"}, {Corpus: "MakeItSo"}, {Corpus: "AutoLockDoor"}}
	resp, err := client.InstallBatch(ctx, &api.InstallBatchRequest{Home: "h2", Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != nil {
			t.Fatalf("batch item %d: %v", i, r.Error)
		}
	}
	if st := svc.Fleet().Cache().Stats(); st.Lookups != uint64(1+len(items)) {
		t.Errorf("a %d-item batch after one install: %d lookups, want %d", len(items), st.Lookups, 1+len(items))
	}
}

// TestServiceDeadline pins the deadline watch: an op that outlives its
// ctx returns DEADLINE_EXCEEDED without waiting for the op.
func TestServiceDeadline(t *testing.T) {
	f := fleet.New(fleet.Options{Shards: 4})
	svc := NewService(f, ServiceOptions{})
	release := make(chan struct{})
	svc.inject = func(stage string) error {
		if stage == StageDetect {
			<-release
		}
		return nil
	}
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
	if aerr == nil || aerr.Code != api.CodeDeadlineExceeded {
		t.Fatalf("install past deadline: %v, want DEADLINE_EXCEEDED", aerr)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline return took %v — the service waited for the stalled op", took)
	}
}

// TestServiceBreakerTripAndRecover drives the detect breaker through
// its whole lifecycle and proves stage independence: with detection
// tripped, extraction stays closed.
func TestServiceBreakerTripAndRecover(t *testing.T) {
	clk := newFakeClock()
	f := fleet.New(fleet.Options{Shards: 4})
	svc := NewService(f, ServiceOptions{
		Breaker: BreakerOptions{Threshold: 2, Cooldown: time.Second, Now: clk.now},
	})
	var failDetect bool
	svc.inject = func(stage string) error {
		if failDetect && stage == StageDetect {
			return api.Errorf(api.CodeInternal, "injected detection fault")
		}
		return nil
	}
	ctx := context.Background()

	// Two internal failures open the detect breaker.
	failDetect = true
	for i := 0; i < 2; i++ {
		_, aerr := svc.Install(ctx, &api.InstallRequest{Home: fmt.Sprintf("h%d", i), Corpus: "ComfortTV"})
		if aerr == nil || aerr.Code != api.CodeInternal {
			t.Fatalf("install %d: %v, want INTERNAL", i, aerr)
		}
	}
	if got := svc.BreakerState(StageDetect); got != BreakerOpen {
		t.Fatalf("detect breaker = %s, want open", got)
	}
	if got := svc.BreakerState(StageExtract); got != BreakerClosed {
		t.Fatalf("extract breaker = %s, want closed (stages trip independently)", got)
	}

	// Shed fast with a retry hint; the failure never reaches the fleet.
	_, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h9", Corpus: "ComfortTV"})
	if aerr == nil || aerr.Code != api.CodeUnavailable {
		t.Fatalf("tripped install: %v, want UNAVAILABLE", aerr)
	}
	if aerr.RetryAfterMs <= 0 {
		t.Errorf("UNAVAILABLE without a retryAfterMs hint: %+v", aerr)
	}
	// Reconfigure shares the detect stage: shed too.
	if _, aerr := svc.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h9", App: "X"}); aerr == nil || aerr.Code != api.CodeUnavailable {
		t.Fatalf("reconfigure through open detect breaker: %v, want UNAVAILABLE", aerr)
	}
	// Reads skip the breakers entirely.
	if _, aerr := svc.Apps(ctx, "h0"); aerr != nil && aerr.Code == api.CodeUnavailable {
		t.Errorf("Apps was shed by the detect breaker: %v", aerr)
	}

	// Heal the stage, pass the cooldown: the half-open probe succeeds
	// and the breaker closes.
	failDetect = false
	clk.advance(2 * time.Second)
	res, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h10", Corpus: "ComfortTV"})
	if aerr != nil {
		t.Fatalf("probe install after cooldown: %v", aerr)
	}
	if res.App != "ComfortTV" {
		t.Errorf("probe result = %+v", res)
	}
	if got := svc.BreakerState(StageDetect); got != BreakerClosed {
		t.Errorf("detect breaker after successful probe = %s, want closed", got)
	}
}

// TestServiceExtractBreakerIndependence trips extraction and proves
// reconfigure — which has no extract stage — keeps serving.
func TestServiceExtractBreakerIndependence(t *testing.T) {
	clk := newFakeClock()
	f := fleet.New(fleet.Options{Shards: 4})
	svc := NewService(f, ServiceOptions{
		Breaker: BreakerOptions{Threshold: 1, Cooldown: time.Minute, Now: clk.now},
	})
	// Seed an installed app while everything is healthy.
	if _, aerr := svc.Install(context.Background(), &api.InstallRequest{Home: "h1", Corpus: "ColdDefender"}); aerr != nil {
		t.Fatal(aerr)
	}
	var failExtract bool
	svc.inject = func(stage string) error {
		if failExtract && stage == StageExtract {
			return api.Errorf(api.CodeInternal, "injected extraction fault")
		}
		return nil
	}
	failExtract = true
	ctx := context.Background()
	if _, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h2", Corpus: "ComfortTV"}); aerr == nil || aerr.Code != api.CodeInternal {
		t.Fatalf("install with failing extraction: %v, want INTERNAL", aerr)
	}
	if got := svc.BreakerState(StageExtract); got != BreakerOpen {
		t.Fatalf("extract breaker = %s, want open", got)
	}
	if _, aerr := svc.Install(ctx, &api.InstallRequest{Home: "h3", Corpus: "ComfortTV"}); aerr == nil || aerr.Code != api.CodeUnavailable {
		t.Fatalf("install through open extract breaker: %v, want UNAVAILABLE", aerr)
	}
	// Reconfigure skips extraction: still healthy.
	if _, aerr := svc.Reconfigure(ctx, &api.ReconfigureRequest{Home: "h1", App: "ColdDefender"}); aerr != nil {
		t.Errorf("reconfigure while extract breaker open: %v, want success", aerr)
	}
	if got := svc.BreakerState(StageDetect); got != BreakerClosed {
		t.Errorf("detect breaker = %s, want closed", got)
	}
}

// TestRPCClientErrorsDoNotTrip hammers the edge with client-caused
// errors; the breakers must stay closed (the stages are healthy).
func TestRPCClientErrorsDoNotTrip(t *testing.T) {
	svc, client := startEdge(t, ServiceOptions{Breaker: BreakerOptions{Threshold: 3}}, ServerOptions{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"})
		client.Install(ctx, &api.InstallRequest{Home: "h1", Source: "not groovy {{{"})
		client.Reconfigure(ctx, &api.ReconfigureRequest{Home: "ghost", App: "X"})
	}
	if got := svc.BreakerState(StageExtract); got != BreakerClosed {
		t.Errorf("extract breaker = %s after client errors, want closed", got)
	}
	if got := svc.BreakerState(StageDetect); got != BreakerClosed {
		t.Errorf("detect breaker = %s after client errors, want closed", got)
	}
}

// TestRPCConcurrentCalls multiplexes many unary calls over one
// connection; run with -race.
func TestRPCConcurrentCalls(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()
	apps := corpus.All()
	if len(apps) > 8 {
		apps = apps[:8]
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(apps)*2)
	for i, app := range apps {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			home := fmt.Sprintf("c%d", i)
			if _, err := client.Install(ctx, &api.InstallRequest{Home: home, Corpus: name}); err != nil {
				errs <- fmt.Errorf("install %s: %w", name, err)
				return
			}
			if _, err := client.Threats(ctx, &api.ThreatsRequest{Home: home}); err != nil {
				errs <- fmt.Errorf("threats %s: %w", home, err)
			}
		}(i, app.Name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRPCMetricsCollector checks the homeguard_rpc_* catalog lands in
// the exposition after traffic, including per-method/code labels.
func TestRPCMetricsCollector(t *testing.T) {
	o := obs.NewObserver()
	f := fleet.New(fleet.Options{Shards: 4, Obs: o})
	svc := NewService(f, ServiceOptions{})
	srv := NewServer(svc, ServerOptions{Obs: o})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	if _, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}); err != nil {
		t.Fatal(err)
	}
	client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "NoSuchApp"})

	want := requestCounts(t, o)
	if want["Install|OK"] != 1 {
		t.Errorf("Install|OK = %v, want 1 (have %v)", want["Install|OK"], want)
	}
	if want["Install|NOT_FOUND"] != 1 {
		t.Errorf("Install|NOT_FOUND = %v, want 1 (have %v)", want["Install|NOT_FOUND"], want)
	}
	var sawLatency, sawBreaker bool
	for _, s := range scrape(t, o) {
		switch s.Name {
		case "homeguard_rpc_latency_seconds_count":
			sawLatency = s.Value >= 2
		case "homeguard_rpc_breaker_open":
			sawBreaker = true
		}
	}
	if !sawLatency {
		t.Error("homeguard_rpc_latency_seconds_count missing or < 2")
	}
	if !sawBreaker {
		t.Error("homeguard_rpc_breaker_open gauge missing")
	}
}

// scrape parses the registry's Prometheus exposition.
func scrape(t *testing.T, o *obs.Observer) []obs.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	return samples
}

// requestCounts scrapes homeguard_rpc_requests_total into a
// "method|code" → value map.
func requestCounts(t *testing.T, o *obs.Observer) map[string]float64 {
	t.Helper()
	counts := map[string]float64{}
	for _, s := range scrape(t, o) {
		if s.Name != "homeguard_rpc_requests_total" {
			continue
		}
		var method, code string
		for _, l := range s.Labels {
			switch l.Name {
			case "method":
				method = l.Value
			case "code":
				code = l.Value
			}
		}
		counts[method+"|"+code] = s.Value
	}
	return counts
}

// TestRPCAdoptHomeCraftedSnapshot sends the 73-byte AdoptHome snapshot
// whose meta record declares -1 apps: the node must answer with an
// error code and keep serving, not crash in the handler goroutine.
func TestRPCAdoptHomeCraftedSnapshot(t *testing.T) {
	_, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	ctx := context.Background()
	var blob bytes.Buffer
	sw, err := snapcodec.NewWriter(&blob, "HGHMSNP\x00", 1)
	if err != nil {
		t.Fatal(err)
	}
	sw.Record([]byte(`{"apps":-1,"homes":1}`))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var resp api.AdoptHomeResponse
	err = client.Call(ctx, MethodAdoptHome.Name, &api.AdoptHomeRequest{Home: "h", Snapshot: blob.Bytes()}, &resp)
	if err == nil {
		t.Fatalf("crafted AdoptHome of %d bytes succeeded: %+v", blob.Len(), resp)
	}
	if code := codeOf(t, err); code == api.CodeOK {
		t.Fatalf("crafted AdoptHome answered %s", code)
	}
	if _, err := client.Ping(ctx); err != nil {
		t.Fatalf("ping after the crafted AdoptHome: %v", err)
	}
}
