package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// TestGoRuntimeMetrics: the runtime collector exports the goroutine
// gauge and the GC CPU counter in well-formed exposition, the counter
// moving forward across a collection.
func TestGoRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, s := range samples {
			got[s.Name] = s.Value
		}
		return got
	}
	before := scrape()
	if n, ok := before["homeguard_go_goroutines"]; !ok || n < 1 {
		t.Errorf("homeguard_go_goroutines = %v (present %v), want at least 1", n, ok)
	}
	if _, ok := before["homeguard_go_gc_cpu_seconds_total"]; !ok {
		t.Fatal("homeguard_go_gc_cpu_seconds_total missing from the exposition")
	}
	runtime.GC()
	if after := scrape(); after["homeguard_go_gc_cpu_seconds_total"] < before["homeguard_go_gc_cpu_seconds_total"] {
		t.Errorf("GC CPU counter went backwards: %v -> %v", before["homeguard_go_gc_cpu_seconds_total"], after["homeguard_go_gc_cpu_seconds_total"])
	}
}
