package main

import "scholarcloud/benchmark/layers"

// perLayer lists every per-layer metric, in report order. A metric a
// workload cannot produce (a cache ratio on a tunnel, a simulator count
// on a socket workload) reads 0 there. README.md says what each should
// move.
func perLayer() []metric {
	ms := []metric{
		// Boundary spans of the traced run, one operation in flight.
		{name: "deploy.domestic_self_us", unit: "us"},
		{name: "deploy.remote_self_us", unit: "us"},
		{name: "bench.origin_self_us", unit: "us"},
		{name: "bench.trace_overhead_pct", unit: "%"},
		// Count deltas per operation: admin /metrics, the tap, runtime.
		{name: "mux.frames_per_op", unit: "count"},
		{name: "core.streams_per_op", unit: "count"},
		{name: "cache.hit_ratio", unit: "ratio", higherBetter: true},
		{name: "cache.evictions_per_op", unit: "count"},
		{name: "cache.border_fetches_per_op", unit: "count"},
		{name: "fleet.picks_per_op", unit: "count"},
		{name: "border.up_kb_per_op", unit: "KiB"},
		{name: "border.down_kb_per_op", unit: "KiB"},
		{name: "border.overhead_ratio", unit: "ratio"},
		{name: "border.writes_per_op", unit: "count"},
		{name: "runtime.gc_cycles_per_kop", unit: "count"},
		{name: "runtime.gc_pause_us_per_op", unit: "us"},
		{name: "runtime.heap_inuse_mb", unit: "MiB"},
		{name: "runtime.goroutines", unit: "count"},
		// Tail latency: too much the host's to be end-to-end (NOISE.md).
		{name: "loadgen.p99_ms", unit: "ms"},
		{name: "setup.build_ms", unit: "ms"},
		{name: "setup.prime_ms", unit: "ms"},
	}
	// Isolated drivers.
	for _, m := range layers.Metrics {
		ms = append(ms, metric{name: m.Name, unit: m.Unit})
	}
	// Simulator counts and spans.
	ms = append(ms,
		metric{name: "netsim.packets_per_op", unit: "count"},
		metric{name: "netsim.retransmits_per_op", unit: "count"},
		metric{name: "mux.sim_frames_per_op", unit: "count"},
		metric{name: "vclock.virt_s_per_wall_s", unit: "ratio", higherBetter: true},
		metric{name: "sim.world_build_ms", unit: "ms"},
		metric{name: "sim.world_close_ms", unit: "ms"},
	)
	for _, cell := range simCellNames() {
		ms = append(ms, metric{name: "sim.cell." + cell + ".ms", unit: "ms"})
	}
	return ms
}
