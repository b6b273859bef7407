package main

import "time"

// layerInputs gathers what the per-layer metrics are computed from:
// counter deltas scraped from each server around the timed window,
// /proc readings, client-side samples and the ladder's spans. Fields a
// workload does not exercise stay zero, so every workload prints the
// same metric list and an idle layer reads 0.
type layerInputs struct {
	ops          float64
	node0, node1 metricsScrape
	gw0, gw1     metricsScrape // nil without a gateway

	nodeCPU, gwCPU, selfCPU time.Duration
	gwRSS                   float64
	clientMeanMs            float64 // mean client latency over all timed ops
	replayMs                float64 // WAL replay of the kill -9 restart

	// store-churn
	batches   float64
	applyMs   []float64 // server-reported audit apply time per batch
	feedBytes []float64 // response body size per findings read

	snapshotBytes int64
	overheadPct   float64
}

// rows computes every per-layer metric, in BENCHMARK.json order.
func (l *layerInputs) rows(tr *tracer) []row {
	n := int(l.ops)
	node := func(name string) float64 { return delta(l.node0, l.node1, name) }
	gw := func(name string) float64 {
		if l.gw0 == nil {
			return 0
		}
		return delta(l.gw0, l.gw1, name)
	}
	perOp := func(v float64) float64 { return ratio(v, l.ops) }
	perBatch := func(v float64) float64 { return ratio(v, l.batches) }
	histMeanUs := func(name string) float64 {
		return 1e6 * ratio(node(name+"_sum"), node(name+"_count"))
	}

	times := tr.layerTimes()
	// spanUs is a layer's mean span time in microseconds; self selects
	// self time (children excluded).
	spanUs := func(name string, self bool) (float64, int) {
		lt := times[name]
		if lt == nil || lt.n == 0 {
			return 0, 0
		}
		d := lt.total
		if self {
			d = lt.self
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(lt.n), lt.n
	}
	parse, nParse := spanUs("groovy.parse", true)
	extract, nExtract := spanUs("symexec.extract", true)
	detInstall, nDet := spanUs("detect.install", false)
	flInstall, nFlInstall := spanUs("fleet.install", false)
	flReconf, nFlReconf := spanUs("fleet.reconfigure", false)
	flThreats, nFlThreats := spanUs("fleet.threats", false)
	rpcInstall, nRPCInstall := spanUs("rpc.install", false)
	rpcReconf, nRPCReconf := spanUs("rpc.reconfigure", false)
	rpcThreats, nRPCThreats := spanUs("rpc.threats", false)
	walInstall, nWAL := spanUs("fleet.install_wal", false)
	since, nSince := spanUs("audit.findings_since", false)
	encode, nEncode := spanUs("feed.encode", false)
	snap, nSnap := spanUs("snapshot", false)
	// A rung's gap to the rung below it is the layer between them; zero
	// where the upper rung did not run.
	gap := func(upper, lower float64, nUpper int) float64 {
		if nUpper == 0 {
			return 0
		}
		return upper - lower
	}

	rpcCalls := node("homeguard_rpc_latency_seconds_count")
	gwHop := 0.0
	if l.gw0 != nil {
		gwHop = 1e3*l.clientMeanMs - histMeanUs("homeguard_rpc_latency_seconds")
	}
	walAppends := node("homeguard_wal_appends_total")
	nb := int(l.batches)

	return []row{
		{"extractcache.miss_per_op", perOp(node("homeguard_extract_cache_misses_total")), "count/op", n},
		{"extractcache.hit_ratio", ratio(node("homeguard_extract_cache_hits_total"), node("homeguard_extract_cache_lookups_total")), "ratio", int(node("homeguard_extract_cache_lookups_total"))},
		{"groovy.parse_us", parse, "us", nParse},
		{"symexec.extract_us", extract, "us", nExtract},
		{"detect.pairs_indexed_per_op", perOp(node("homeguard_detect_pairs_indexed_total")), "count/op", n},
		{"detect.pairs_skipped_per_op", perOp(node("homeguard_detect_pairs_skipped_by_index_total")), "count/op", n},
		{"pairverdict.hit_ratio", ratio(node("homeguard_verdict_cache_hits_total"), node("homeguard_verdict_cache_lookups_total")), "ratio", int(node("homeguard_verdict_cache_lookups_total"))},
		{"solver.calls_per_op", perOp(node("homeguard_solver_calls_total") + node("homeguard_audit_solver_calls_total")), "count/op", n},
		{"detect.install_us", detInstall, "us", nDet},
		{"fleet.install_us", flInstall, "us", nFlInstall},
		{"fleet.reconfigure_us", flReconf, "us", nFlReconf},
		{"fleet.threats_us", flThreats, "us", nFlThreats},
		{"fleet.install_mean_us", histMeanUs("homeguard_install_duration_seconds"), "us", int(node("homeguard_install_duration_seconds_count"))},
		{"rpc.install_us", gap(rpcInstall, flInstall, nRPCInstall), "us", nRPCInstall},
		{"rpc.reconfigure_us", gap(rpcReconf, flReconf, nRPCReconf), "us", nRPCReconf},
		{"rpc.threats_us", gap(rpcThreats, flThreats, nRPCThreats), "us", nRPCThreats},
		{"rpc.server_mean_us", histMeanUs("homeguard_rpc_latency_seconds"), "us", int(rpcCalls)},
		{"wal.bytes_per_write", ratio(node("homeguard_wal_bytes_total"), walAppends), "B", int(walAppends)},
		{"wal.fsyncs_per_append", ratio(node("homeguard_wal_fsyncs_total"), walAppends), "ratio", int(walAppends)},
		{"wal.append_us", gap(walInstall, flInstall, nWAL), "us", nWAL},
		{"wal.replay_ms", l.replayMs, "ms", 1},
		{"gw.hop_us", gwHop, "us", n},
		{"gw.cpu_us_per_op", perOp(float64(l.gwCPU.Microseconds())), "us", n},
		{"gw.rss_peak_mb", l.gwRSS, "MB", 1},
		{"cluster.retries", gw("homeguard_cluster_retries_total"), "count", n},
		{"cluster.resyncs", gw("homeguard_cluster_resyncs_total"), "count", n},
		{"audit.apply_ms", median(l.applyMs), "ms", len(l.applyMs)},
		{"audit.pairs_rechecked_per_batch", perBatch(node("homeguard_audit_pairs_rechecked_total")), "count", nb},
		{"audit.findings_delta_per_batch", perBatch(node("homeguard_audit_findings_added_total") + node("homeguard_audit_findings_resolved_total")), "count", nb},
		{"audit.findings_since_ms", since / 1e3, "ms", nSince},
		{"feed.encode_us", encode, "us", nEncode},
		{"feed.bytes_per_read", mean(l.feedBytes), "B", len(l.feedBytes)},
		{"snapshot.homes_ms", snap / 1e3, "ms", nSnap},
		{"snapshot.bytes", float64(l.snapshotBytes), "B", nSnap},
		{"node.cpu_us_per_op", perOp(float64(l.nodeCPU.Microseconds())), "us", n},
		{"loadgen.cpu_us_per_op", perOp(float64(l.selfCPU.Microseconds())), "us", n},
		{"trace.overhead_pct", l.overheadPct, "%", 1},
	}
}
