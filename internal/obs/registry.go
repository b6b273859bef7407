package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair.
type Label struct {
	Name  string
	Value string
}

// Collector emits current metric values at scrape time. Collectors run
// under the registry lock in registration order; they must not call back
// into the registry.
type Collector func(e *Emit)

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Two kinds of metric coexist:
//
//   - owned metrics (Counter, Gauge, Histogram) the registry creates and
//     updates atomically — for code that has no counter of its own;
//   - collected metrics, emitted by registered Collector callbacks at
//     scrape time — for subsystems whose counters already live behind
//     their own locks (fleet metrics, cache stats, detector totals).
//     Collection reads a snapshot once per scrape, so scraping adds no
//     contention to the request path.
//
// Registration is idempotent by name: asking for an owned metric that
// already exists returns the existing one (the store auditor re-registers
// its counters on every revision).
type Registry struct {
	mu         sync.Mutex
	order      []string // owned metric names in registration order
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Counter is a monotonically increasing owned metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an owned metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter returns the owned counter registered under name, creating it
// on first use. The help text of the first registration wins.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.register(name, help)
	return c
}

// Gauge returns the owned gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.register(name, help)
	return g
}

// Histogram returns the owned histogram registered under name, creating
// it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{}
	r.histograms[name] = h
	r.register(name, help)
	return h
}

// register records a new owned metric's order slot and help. Callers
// hold r.mu and have checked the name is new in its kind map.
func (r *Registry) register(name, help string) {
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
		r.order = append(r.order, name)
	}
}

// RegisterCollector adds a scrape-time metric source. Collectors run in
// registration order after the owned metrics.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE comment per metric name,
// then its samples. Owned metrics come first in registration order, then
// each collector's output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := newEmit()
	for _, name := range r.order {
		switch {
		case r.counters[name] != nil:
			e.Counter(name, r.help[name], float64(r.counters[name].Value()))
		case r.gauges[name] != nil:
			e.Gauge(name, r.help[name], float64(r.gauges[name].Value()))
		case r.histograms[name] != nil:
			e.Histogram(name, r.help[name], r.histograms[name].Snapshot())
		}
	}
	for _, c := range r.collectors {
		c(e)
	}
	if e.err != nil {
		return e.err
	}
	_, err := w.Write([]byte(e.b.String()))
	return err
}

// Emit receives metric samples during a scrape. All methods validate the
// metric name and label syntax; an invalid emission is recorded as an
// error (surfaced by WritePrometheus) rather than producing malformed
// exposition output.
type Emit struct {
	b     strings.Builder
	typed map[string]string // name -> emitted TYPE
	err   error
}

func newEmit() *Emit { return &Emit{typed: map[string]string{}} }

// Counter emits one counter sample. Repeated emissions of the same name
// (with distinct labels) share one HELP/TYPE header.
func (e *Emit) Counter(name, help string, v float64, labels ...Label) {
	e.sample(name, help, "counter", v, labels)
}

// Gauge emits one gauge sample.
func (e *Emit) Gauge(name, help string, v float64, labels ...Label) {
	e.sample(name, help, "gauge", v, labels)
}

// Histogram emits a full histogram: cumulative le buckets, _sum and
// _count, per the Prometheus histogram convention.
func (e *Emit) Histogram(name, help string, s HistogramSnapshot) {
	if !e.header(name, help, "histogram") {
		return
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		// Every observation lands in some bucket (the last one is
		// unbounded), so the +Inf bucket below carries the total and the
		// last bounded bucket can be skipped when it equals it.
		e.b.WriteString(name)
		e.b.WriteString(`_bucket{le="`)
		e.b.WriteString(formatFloat(BucketBound(i).Seconds()))
		e.b.WriteString(`"} `)
		e.b.WriteString(strconv.FormatUint(cum, 10))
		e.b.WriteByte('\n')
	}
	e.b.WriteString(name)
	e.b.WriteString(`_bucket{le="+Inf"} `)
	e.b.WriteString(strconv.FormatUint(s.Count, 10))
	e.b.WriteByte('\n')
	e.b.WriteString(name)
	e.b.WriteString("_sum ")
	e.b.WriteString(formatFloat(float64(s.SumNS) / 1e9))
	e.b.WriteByte('\n')
	e.b.WriteString(name)
	e.b.WriteString("_count ")
	e.b.WriteString(strconv.FormatUint(s.Count, 10))
	e.b.WriteByte('\n')
}

func (e *Emit) sample(name, help, typ string, v float64, labels []Label) {
	if !e.header(name, help, typ) {
		return
	}
	e.b.WriteString(name)
	if len(labels) > 0 {
		e.b.WriteByte('{')
		for i, l := range labels {
			if !validName(l.Name) {
				e.fail(fmt.Errorf("obs: metric %s: invalid label name %q", name, l.Name))
				return
			}
			if i > 0 {
				e.b.WriteByte(',')
			}
			e.b.WriteString(l.Name)
			e.b.WriteString(`="`)
			e.b.WriteString(escapeLabel(l.Value))
			e.b.WriteByte('"')
		}
		e.b.WriteByte('}')
	}
	e.b.WriteByte(' ')
	e.b.WriteString(formatFloat(v))
	e.b.WriteByte('\n')
}

// header writes the HELP/TYPE comments the first time a name appears and
// validates the name. It reports whether the sample may be written.
func (e *Emit) header(name, help, typ string) bool {
	if prev, ok := e.typed[name]; ok {
		if prev != typ {
			e.fail(fmt.Errorf("obs: metric %s emitted as both %s and %s", name, prev, typ))
			return false
		}
		return true
	}
	if !validName(name) {
		e.fail(fmt.Errorf("obs: invalid metric name %q", name))
		return false
	}
	e.typed[name] = typ
	e.b.WriteString("# HELP ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(escapeHelp(help))
	e.b.WriteByte('\n')
	e.b.WriteString("# TYPE ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(typ)
	e.b.WriteByte('\n')
	return true
}

func (e *Emit) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// validName reports whether s is a legal Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons are reserved for rules but legal).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SortLabels orders labels by name, the conventional exposition order.
func SortLabels(labels []Label) {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
}
