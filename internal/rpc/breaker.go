package rpc

import (
	"sync"
	"time"

	"homeguard/internal/api"
)

// Breaker states.
const (
	BreakerClosed   = "closed"    // normal operation
	BreakerOpen     = "open"      // shedding: requests fail fast
	BreakerHalfOpen = "half-open" // cooldown elapsed: one probe in flight
)

// BreakerOptions tune a circuit breaker.
type BreakerOptions struct {
	// Threshold is the number of consecutive qualifying failures that
	// opens the breaker (default 5).
	Threshold int
	// Cooldown is how long an open breaker sheds before admitting a
	// half-open probe (default 2s). It is also the retry hint returned
	// to shed clients.
	Cooldown time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Breaker is a consecutive-failure circuit breaker guarding one
// pipeline stage. The service keeps one per stage (extraction,
// detection) so a wedged extractor sheds installs while reconfigures —
// which skip extraction — keep flowing, and vice versa.
//
// Classification is the caller's job: only failures that indicate the
// stage itself is unhealthy (timeouts, panics, internal errors) should
// be recorded as Failure; client-caused errors (unknown home, a Groovy
// source that doesn't parse) are Success — the stage did its work.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    string
	failures int       // consecutive qualifying failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 2 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Breaker{
		threshold: opts.Threshold,
		cooldown:  opts.Cooldown,
		now:       opts.Now,
		state:     BreakerClosed,
	}
}

// Allow reports whether a request may proceed. When it returns false
// the request must be shed with UNAVAILABLE and retryAfter as the
// client's retry hint; Admit builds that envelope. An open breaker
// whose cooldown has elapsed admits exactly one probe (half-open);
// further requests are shed until the probe reports.
func (b *Breaker) Allow() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if wait := b.openedAt.Add(b.cooldown).Sub(b.now()); wait > 0 {
			return false, wait
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Admit gates one request on Allow: nil when it may proceed, otherwise
// the UNAVAILABLE envelope to shed it with. The message names what the
// breaker guards; the retry hint is in whole milliseconds and at least
// 1, so a cooldown with under a millisecond left still sends one
// (RetryAfterMs is omitted from the wire when 0).
func (b *Breaker) Admit(what string) *api.Error {
	ok, retry := b.Allow()
	if ok {
		return nil
	}
	return &api.Error{
		Code:         api.CodeUnavailable,
		Message:      what + " circuit breaker open",
		RetryAfterMs: max(retry.Milliseconds(), 1),
	}
}

// Success records a healthy completion: the breaker closes and the
// consecutive-failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure records a qualifying failure. A failed half-open probe
// reopens immediately; in the closed state the breaker opens after
// Threshold consecutive failures.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// State returns the breaker's current state name. An open breaker
// whose cooldown has already elapsed still reports open until the next
// Allow transitions it.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
