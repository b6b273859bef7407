package rpc

import (
	"slices"
	"sync"
	"time"
)

// workerIdle is how long a parked worker waits for a job before it
// exits.
const workerIdle = 10 * time.Second

// workers runs jobs on reused goroutines. Go hands a job to the most
// recently parked worker, or starts a new worker when none is parked,
// so a job never waits for another to finish and the pool grows to
// whatever concurrency its callers bring. A worker's stack keeps the
// size its earlier jobs grew it to, so the next job runs without
// regrowing it; that is the point of reusing them. A worker parked for
// workerIdle exits. The zero value is ready to use.
type workers struct {
	mu   sync.Mutex
	idle []chan func() // parked workers, most recently parked last
}

// Go runs job on a worker.
func (p *workers) Go(job func()) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w <- job // buffered: the worker is parked on it or about to be
		return
	}
	p.mu.Unlock()
	go p.work(job)
}

// work runs job, then parks and runs each job handed to it until it
// has been idle for workerIdle.
func (p *workers) work(job func()) {
	jobs := make(chan func(), 1)
	idle := time.NewTimer(workerIdle)
	defer idle.Stop()
	for {
		job()
		job = nil // let the finished job's closure go while parked
		idle.Reset(workerIdle)
		p.mu.Lock()
		p.idle = append(p.idle, jobs)
		p.mu.Unlock()
		select {
		case job = <-jobs:
		case <-idle.C:
			if p.unpark(jobs) {
				return
			}
			job = <-jobs // Go took this worker before it could leave
		}
	}
}

// unpark removes a parked worker's channel, reporting false when Go
// already took it.
func (p *workers) unpark(jobs chan func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.idle {
		if w == jobs {
			p.idle = slices.Delete(p.idle, i, i+1)
			return true
		}
	}
	return false
}
