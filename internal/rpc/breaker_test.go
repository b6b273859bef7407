package rpc

import (
	"testing"
	"time"

	"homeguard/internal/api"
)

// fakeClock is an injectable clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := newFakeClock()
	return NewBreaker(BreakerOptions{Threshold: threshold, Cooldown: cooldown, Now: clk.now}), clk
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %s, want closed", b.State())
	}
	b.Failure() // third consecutive failure trips it
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %s, want open", b.State())
	}
	ok, retry := b.Allow()
	if ok {
		t.Error("open breaker admitted a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retry hint = %v, want (0, 1s]", retry)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success() // interleaved success: not consecutive anymore
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Errorf("state = %s, want closed (failures were not consecutive)", b.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}
	// Before the cooldown: shed.
	clk.advance(500 * time.Millisecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a request mid-cooldown")
	}
	// After the cooldown: exactly one probe.
	clk.advance(600 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker denied the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// Probe succeeds: closed, serving again.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %s, want closed", b.State())
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("recovered breaker denied a request")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker denied the half-open probe")
	}
	b.Failure() // probe failed: reopen immediately
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	// The cooldown restarts from the failed probe.
	clk.advance(500 * time.Millisecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a request right after a failed probe")
	}
	clk.advance(600 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker denied the second probe after a full cooldown")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %s, want closed", b.State())
	}
}

// TestBreakerAdmitClampsRetryHint: a shed request's envelope is
// UNAVAILABLE with a retry hint of at least 1 ms, even with half a
// millisecond of cooldown left, where a plain Milliseconds() gives 0
// and the wire would drop the hint.
func TestBreakerAdmitClampsRetryHint(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	if aerr := b.Admit("test"); aerr != nil {
		t.Fatalf("closed breaker shed a request: %v", aerr)
	}
	b.Failure()
	clk.advance(time.Second - 500*time.Microsecond)
	aerr := b.Admit("test")
	if aerr == nil {
		t.Fatal("open breaker admitted a request")
	}
	if aerr.Code != api.CodeUnavailable || aerr.RetryAfterMs < 1 {
		t.Errorf("shed envelope = %+v, want UNAVAILABLE with RetryAfterMs >= 1", aerr)
	}
	clk.advance(time.Millisecond)
	if aerr := b.Admit("test"); aerr != nil {
		t.Errorf("breaker past its cooldown shed the half-open probe: %v", aerr)
	}
}
