package main

import (
	"fmt"
	"sort"
	"time"
)

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the exact q-quantile of sorted samples, interpolating
// linearly between the two nearest order statistics (Hyndman-Fan type 7,
// the default of most statistics packages). Zero for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median of unsorted values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean of values; zero for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// segments is how many consecutive parts the timed work is cut into.
// Timings are computed per segment and reported as the median over the
// segments, so a burst of interference from outside the benchmark that
// hits one segment does not move the result.
const segments = 5

// segment is the measurements of one part of the timed work.
type segment struct {
	wall          time.Duration
	writes, reads []time.Duration
	failed        int
	serverCPU     time.Duration // every server process, summed
}

func (s *segment) ops() int { return len(s.writes) + len(s.reads) }

// segmentMedian is the median over segments of f.
func segmentMedian(segs []segment, f func(s *segment) float64) float64 {
	xs := make([]float64, len(segs))
	for i := range segs {
		xs[i] = f(&segs[i])
	}
	return median(xs)
}

// e2eRows are the end-to-end metrics every workload reports. It also
// prints each segment's figures, so a disturbed segment is visible.
func e2eRows(setups, recovers []float64, segs []segment, rssMB float64) []row {
	for i := range segs {
		s := &segs[i]
		ws, rs := sortedMs(s.writes), sortedMs(s.reads)
		fmt.Printf("segment %d: %d ops in %.3fs, %.1f ops/s, write p50 %.4fms p90 %.4fms, read p50 %.4fms p90 %.4fms\n",
			i, s.ops(), s.wall.Seconds(), float64(s.ops())/s.wall.Seconds(),
			quantile(ws, 0.5), quantile(ws, 0.9), quantile(rs, 0.5), quantile(rs, 0.9))
	}
	var nw, nr int
	for i := range segs {
		nw += len(segs[i].writes)
		nr += len(segs[i].reads)
	}
	q := func(pick func(s *segment) []time.Duration, p float64) func(s *segment) float64 {
		return func(s *segment) float64 { return quantile(sortedMs(pick(s)), p) }
	}
	writes := func(s *segment) []time.Duration { return s.writes }
	reads := func(s *segment) []time.Duration { return s.reads }
	return []row{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_ops_s", segmentMedian(segs, func(s *segment) float64 {
			return float64(s.ops()) / s.wall.Seconds()
		}), "ops/s", nw + nr},
		{"write_p50_ms", segmentMedian(segs, q(writes, 0.50)), "ms", nw},
		{"write_p90_ms", segmentMedian(segs, q(writes, 0.90)), "ms", nw},
		{"read_p50_ms", segmentMedian(segs, q(reads, 0.50)), "ms", nr},
		{"read_p90_ms", segmentMedian(segs, q(reads, 0.90)), "ms", nr},
		{"cpu_us_per_op", segmentMedian(segs, func(s *segment) float64 {
			return ratio(float64(s.serverCPU.Microseconds()), float64(s.ops()))
		}), "us", nw + nr},
		{"rss_peak_mb", rssMB, "MB", 1},
		{"recover_s", median(recovers), "s", len(recovers)},
	}
}

// ratio is a/b, or zero when b is zero (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
