package fleet

import (
	"sort"
	"sync"
	"time"

	"homeguard/internal/detect"
	"homeguard/internal/extractcache"
	"homeguard/internal/obs"
	"homeguard/internal/pairverdict"
)

// metrics aggregates fleet-wide counters behind one mutex. Every field is
// guarded by mu; detector-level stats stay per-home behind home locks and
// are folded in as deltas when each install/reconfigure completes, so
// reading a snapshot never touches a home lock (a wedged or long-running
// install must not stall /metrics, and scrapes stay O(1) at fleet scale).
// The install-latency histogram is an obs.Histogram (40 exponential
// buckets from 1µs, nearest-rank-ceiling quantiles); its atomics make it
// safe to snapshot without mu, but writes still happen under mu with the
// rest of the install bookkeeping.
type metrics struct {
	mu               sync.Mutex
	homes            uint64
	installs         uint64
	installErrors    uint64
	installConflicts uint64
	reconfigures     uint64
	threats          map[detect.Kind]uint64
	installLat       obs.Histogram
	det              DetectorTotals
}

func newMetrics() *metrics {
	return &metrics{threats: map[detect.Kind]uint64{}}
}

func (m *metrics) homeCreated() {
	m.mu.Lock()
	m.homes++
	m.mu.Unlock()
}

func (m *metrics) homeRemoved() {
	m.mu.Lock()
	if m.homes > 0 {
		m.homes--
	}
	m.mu.Unlock()
}

func (m *metrics) installDone(d time.Duration, threats []detect.Threat) {
	m.mu.Lock()
	m.installs++
	m.installLat.Observe(d)
	for _, t := range threats {
		m.threats[t.Kind]++
	}
	m.mu.Unlock()
}

func (m *metrics) installFailed() {
	m.mu.Lock()
	m.installErrors++
	m.mu.Unlock()
}

func (m *metrics) installConflicted() {
	m.mu.Lock()
	m.installConflicts++
	m.mu.Unlock()
}

// detectorDelta folds one home's detector-counter growth into the
// fleet-wide totals. The caller computes the delta under the home's lock
// (detector counters only grow, so cur - prev is exact) and reports it
// here afterwards.
func (m *metrics) detectorDelta(d DetectorTotals) {
	m.mu.Lock()
	m.det.PairsChecked += d.PairsChecked
	m.det.PairsPruned += d.PairsPruned
	m.det.PairsIndexed += d.PairsIndexed
	m.det.PairsSkippedByIndex += d.PairsSkippedByIndex
	m.det.SolverCalls += d.SolverCalls
	m.det.SolverCacheHits += d.SolverCacheHits
	m.det.PairVerdictHits += d.PairVerdictHits
	m.det.PairVerdictMisses += d.PairVerdictMisses
	m.det.SearchLimitHits += d.SearchLimitHits
	m.mu.Unlock()
}

// reconfigureDone deliberately does not feed ThreatsByKind: a reconfigure
// re-reports threats over the same rule pairs, and re-counting them would
// inflate the per-kind totals with every no-op reconfigure.
func (m *metrics) reconfigureDone() {
	m.mu.Lock()
	m.reconfigures++
	m.mu.Unlock()
}

// MetricsSnapshot is a point-in-time view of fleet service metrics.
type MetricsSnapshot struct {
	Homes         uint64
	Installs      uint64
	InstallErrors uint64
	// InstallConflicts counts duplicate-app installs (client retries
	// rejected with ErrAppInstalled) — expected traffic, kept separate
	// from InstallErrors so error alerting stays meaningful.
	InstallConflicts uint64
	Reconfigures     uint64
	// ThreatsByKind counts threats reported by installs fleet-wide per
	// Table I kind (reconfigure re-detections are not re-counted).
	ThreatsByKind map[detect.Kind]uint64
	// InstallP50/InstallP99 are histogram-quantized install latencies
	// (extraction + detection + reporting).
	InstallP50 time.Duration
	InstallP99 time.Duration
	// Cache is the shared extraction cache state.
	Cache extractcache.Stats
	// PairVerdicts is the shared pair-verdict cache state (all zero when
	// the fleet runs with DisablePairVerdicts).
	PairVerdicts pairverdict.Stats
	// Detectors aggregates per-home detector counters fleet-wide: how
	// many rule pairs were checked, how many the footprint prune skipped,
	// and how much solving the verdict cache absorbed. Totals include
	// completed installs/reconfigures only — work in flight shows up once
	// its operation finishes.
	Detectors DetectorTotals
}

// DetectorTotals are per-home detect.Stats counters accumulated over
// every completed install and reconfigure in the fleet.
type DetectorTotals struct {
	PairsChecked uint64
	PairsPruned  uint64
	// PairsIndexed counts candidate app pairs generated from the
	// footprint-channel index's posting lists; PairsSkippedByIndex counts
	// rule pairs the index never generated (also included in PairsPruned
	// — see detect.Stats for the unit convention).
	PairsIndexed        uint64
	PairsSkippedByIndex uint64
	SolverCalls         uint64
	SolverCacheHits     uint64
	PairVerdictHits     uint64
	PairVerdictMisses   uint64
	// SearchLimitHits counts solver calls that exhausted their node budget
	// and degraded to the conservative verdict — nonzero means detection
	// quality is degraded somewhere in the fleet and the budget
	// (detect.Options.SolverNodeCap) needs raising.
	SearchLimitHits uint64
}

// detectorTotalsOf projects the scalar counters of one detector's stats.
func detectorTotalsOf(st detect.Stats) DetectorTotals {
	return DetectorTotals{
		PairsChecked:        uint64(st.PairsChecked),
		PairsPruned:         uint64(st.PairsPruned),
		PairsIndexed:        uint64(st.PairsIndexed),
		PairsSkippedByIndex: uint64(st.PairsSkippedByIndex),
		SolverCalls:         uint64(st.SolverCalls),
		SolverCacheHits:     uint64(st.SolverCacheHits),
		PairVerdictHits:     uint64(st.PairVerdictHits),
		PairVerdictMisses:   uint64(st.PairVerdictMisses),
		SearchLimitHits:     uint64(st.SearchLimitHits),
	}
}

// minus returns the counter growth from prev to t.
func (t DetectorTotals) minus(prev DetectorTotals) DetectorTotals {
	return DetectorTotals{
		PairsChecked:        t.PairsChecked - prev.PairsChecked,
		PairsPruned:         t.PairsPruned - prev.PairsPruned,
		PairsIndexed:        t.PairsIndexed - prev.PairsIndexed,
		PairsSkippedByIndex: t.PairsSkippedByIndex - prev.PairsSkippedByIndex,
		SolverCalls:         t.SolverCalls - prev.SolverCalls,
		SolverCacheHits:     t.SolverCacheHits - prev.SolverCacheHits,
		PairVerdictHits:     t.PairVerdictHits - prev.PairVerdictHits,
		PairVerdictMisses:   t.PairVerdictMisses - prev.PairVerdictMisses,
		SearchLimitHits:     t.SearchLimitHits - prev.SearchLimitHits,
	}
}

func (m *metrics) snapshot(cache extractcache.Stats, verdicts pairverdict.Stats) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	kinds := make(map[detect.Kind]uint64, len(m.threats))
	for k, v := range m.threats {
		kinds[k] = v
	}
	return MetricsSnapshot{
		Homes:            m.homes,
		Installs:         m.installs,
		InstallErrors:    m.installErrors,
		InstallConflicts: m.installConflicts,
		Reconfigures:     m.reconfigures,
		ThreatsByKind:    kinds,
		InstallP50:       m.installLat.Quantile(0.50),
		InstallP99:       m.installLat.Quantile(0.99),
		Cache:            cache,
		PairVerdicts:     verdicts,
		Detectors:        m.det,
	}
}

// registerCollector publishes the fleet's counters into an obs.Registry
// under the stable homeguard_* metric names (the catalog is documented in
// the root package's Observability section). The collector reads one
// MetricsSnapshot per scrape — the same lock discipline as the JSON
// /metrics endpoint — so scraping never touches a home lock.
func (f *Fleet) registerCollector(r *obs.Registry) {
	r.RegisterCollector(func(e *obs.Emit) {
		s := f.Metrics()
		e.Gauge("homeguard_homes", "Homes managed by the fleet.", float64(s.Homes))
		e.Counter("homeguard_installs_total", "Completed app installs.", float64(s.Installs))
		e.Counter("homeguard_install_errors_total", "Installs failed by extraction errors.", float64(s.InstallErrors))
		e.Counter("homeguard_install_conflicts_total", "Installs rejected as duplicate app names (client retries).", float64(s.InstallConflicts))
		e.Counter("homeguard_reconfigures_total", "Completed app reconfigurations.", float64(s.Reconfigures))

		kinds := make([]detect.Kind, 0, len(s.ThreatsByKind))
		for k := range s.ThreatsByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			e.Counter("homeguard_threats_total", "Threats reported by installs, per kind.",
				float64(s.ThreatsByKind[k]), obs.Label{Name: "kind", Value: string(k)})
		}

		e.Histogram("homeguard_install_duration_seconds",
			"Install latency (extraction + detection + reporting).", f.metrics.installLat.Snapshot())

		e.Counter("homeguard_extract_cache_lookups_total", "Extraction cache lookups.", float64(s.Cache.Lookups))
		e.Counter("homeguard_extract_cache_hits_total", "Extraction cache hits.", float64(s.Cache.Hits))
		e.Counter("homeguard_extract_cache_misses_total", "Extraction cache misses.", float64(s.Cache.Misses))
		e.Counter("homeguard_extract_cache_evictions_total", "Extraction cache evictions.", float64(s.Cache.Evictions))
		e.Gauge("homeguard_extract_cache_entries", "Extraction cache resident entries.", float64(s.Cache.Entries))

		e.Counter("homeguard_verdict_cache_lookups_total", "Pair-verdict cache lookups.", float64(s.PairVerdicts.Lookups))
		e.Counter("homeguard_verdict_cache_hits_total", "Pair-verdict cache hits.", float64(s.PairVerdicts.Hits))
		e.Counter("homeguard_verdict_cache_misses_total", "Pair-verdict cache misses.", float64(s.PairVerdicts.Misses))
		e.Gauge("homeguard_verdict_cache_entries", "Pair-verdict cache resident entries.", float64(s.PairVerdicts.Entries))

		d := s.Detectors
		e.Counter("homeguard_detect_pairs_checked_total", "Rule pairs whose verdict a home obtained.", float64(d.PairsChecked))
		e.Counter("homeguard_detect_pairs_pruned_total", "Rule pairs skipped by the footprint prune.", float64(d.PairsPruned))
		e.Counter("homeguard_detect_pairs_indexed_total", "Candidate app pairs generated by the footprint index.", float64(d.PairsIndexed))
		e.Counter("homeguard_detect_pairs_skipped_by_index_total", "Rule pairs the footprint index never generated.", float64(d.PairsSkippedByIndex))
		e.Counter("homeguard_detect_verdict_hits_total", "Detector-side pair-verdict cache hits.", float64(d.PairVerdictHits))
		e.Counter("homeguard_detect_verdict_misses_total", "Detector-side pair-verdict cache misses.", float64(d.PairVerdictMisses))
		e.Counter("homeguard_solver_calls_total", "Constraint-solver invocations.", float64(d.SolverCalls))
		e.Counter("homeguard_solver_cache_hits_total", "Solver answers reused across threat kinds within one rule pair (Fig. 9 reuse).", float64(d.SolverCacheHits))
		e.Counter("homeguard_solver_limit_hits_total", "Solver calls degraded by node-budget exhaustion.", float64(d.SearchLimitHits))
	})
}
