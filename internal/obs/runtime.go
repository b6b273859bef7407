package obs

import (
	"runtime"
	"runtime/metrics"
)

// gcCPU is the runtime/metrics name of the GC's CPU time.
const gcCPU = "/cpu/classes/gc/total:cpu-seconds"

// RegisterGoRuntime adds the process's Go runtime metrics to r: the
// goroutine count (homeguard_go_goroutines, which shows the RPC edge's
// parked workers) and the CPU time spent in garbage collection
// (homeguard_go_gc_cpu_seconds_total, the runtime's own estimate), read
// at each scrape.
func (r *Registry) RegisterGoRuntime() {
	r.RegisterCollector(func(e *Emit) {
		e.Gauge("homeguard_go_goroutines", "Goroutines that currently exist.", float64(runtime.NumGoroutine()))
		s := []metrics.Sample{{Name: gcCPU}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64 {
			e.Counter("homeguard_go_gc_cpu_seconds_total", "Estimated CPU time spent in garbage collection (runtime/metrics "+gcCPU+").",
				s[0].Value.Float64())
		}
	})
}
