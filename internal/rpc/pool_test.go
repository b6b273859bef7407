package rpc

import (
	"bufio"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homeguard/internal/api"
	"homeguard/internal/fleet"
)

// parked is the number of workers parked in p.
func parked(p *workers) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// waitParked waits until n workers are parked in p.
func waitParked(t *testing.T, p *workers, n int) {
	t.Helper()
	for start := time.Now(); parked(p) != n; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d workers parked after 10s, want %d", parked(p), n)
		}
	}
}

// TestWorkersReuse: concurrent jobs each get a worker of their own,
// and once they finish, later jobs run on those parked workers instead
// of new ones. A worker that leaves takes itself out of the pool.
func TestWorkersReuse(t *testing.T) {
	var p workers
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(3)
	for i := 0; i < 3; i++ {
		p.Go(func() {
			running.Done()
			<-release
		})
	}
	running.Wait() // all three run at once: no job waited for another
	close(release)
	waitParked(t, &p, 3)
	for i := 0; i < 10; i++ {
		done := make(chan struct{})
		p.Go(func() { close(done) })
		<-done
		waitParked(t, &p, 3)
	}

	p.mu.Lock()
	w := p.idle[0]
	p.mu.Unlock()
	if !p.unpark(w) || parked(&p) != 2 {
		t.Fatalf("unpark of a parked worker: %d left parked, want 2", parked(&p))
	}
	if p.unpark(w) {
		t.Error("unpark of a worker no longer parked reported it removed")
	}
	w <- func() {} // the worker still owns its channel: let it run and park again
	waitParked(t, &p, 3)
}

// TestRPCHugeDeadline: a deadlineMs too large for a time.Duration
// (18446744073710 ms wraps to 448µs when multiplied out) is the longest
// deadline, not an instant one, so a call that takes 20ms succeeds.
func TestRPCHugeDeadline(t *testing.T) {
	svc := NewService(fleet.New(fleet.Options{Shards: 1}), ServiceOptions{})
	svc.inject = func(stage string) error {
		if stage == StageDetect {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	conn := pipeServer(t, svc)
	req := rawFrame(frameReq, 1, envelope(`{"method":"Install","deadlineMs":18446744073710}`, `{"home":"h1","corpus":"ComfortTV"}`))
	go conn.Write(append([]byte(Preface), req...))
	f, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if err := statusErr(f.payload); err != nil {
		t.Fatalf("install under a 584-year deadline: %v", err)
	}
}

// TestRPCStalledStageDoesNotBlock: while one call's stage op is
// stalled, a later call on the same connection runs and completes, and
// the stalled call still ends in DEADLINE_EXCEEDED at its deadline.
func TestRPCStalledStageDoesNotBlock(t *testing.T) {
	svc, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	stalled, release := make(chan struct{}), make(chan struct{})
	var detects atomic.Int64
	svc.inject = func(stage string) error {
		if stage == StageDetect && detects.Add(1) == 1 {
			close(stalled)
			<-release
		}
		return nil
	}
	defer close(release)

	first := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
		first <- err
	}()
	<-stalled
	if _, err := client.Install(context.Background(), &api.InstallRequest{Home: "h2", Corpus: "ComfortTV"}); err != nil {
		t.Fatalf("install behind a stalled op: %v", err)
	}
	select {
	case err := <-first:
		t.Fatalf("the stalled install returned (%v) before its op was released or its deadline passed", err)
	default:
	}
	if got := codeOf(t, <-first); got != api.CodeDeadlineExceeded {
		t.Errorf("stalled install = %s, want DEADLINE_EXCEEDED", got)
	}
}

// TestRPCStagePanic: a panic in a stage op is answered as INTERNAL, and
// the stage's worker goes on serving later calls.
func TestRPCStagePanic(t *testing.T) {
	svc, client := startEdge(t, ServiceOptions{}, ServerOptions{})
	var detects atomic.Int64
	svc.inject = func(stage string) error {
		if stage == StageDetect && detects.Add(1) == 1 {
			panic("injected detection panic")
		}
		return nil
	}
	ctx := context.Background()
	_, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"})
	if got := codeOf(t, err); got != api.CodeInternal {
		t.Fatalf("install with a panicking stage = %v, want INTERNAL", err)
	}
	if _, err := client.Install(ctx, &api.InstallRequest{Home: "h1", Corpus: "ComfortTV"}); err != nil {
		t.Fatalf("install after the panic: %v", err)
	}
}
