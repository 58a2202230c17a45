package main

import (
	"math"
	"syscall"
	"time"

	"laps/internal/stats"
)

// metricDef fixes a metric's name and unit. BENCHMARK.json declares the
// same names; lapsbench_test.go fails when the two drift apart.
type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics: what an operator embedding the live
// engine or a researcher running the simulator sees. Every workload
// reports every one of them, and none of them is ever zero.
var endToEnd = []metricDef{
	{"pps", "pkt/s"},
	{"cpu_ns_per_pkt", "ns"},
	{"latency_p99_us", "us"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// unbounded are the end-to-end quantities that cannot carry a relative
// bound: those that are zero when the system is correct or on the
// workloads a layer does not run in, which the correctness gate enforces
// instead, and the latency median, which at saturation swings by tens of
// percent from one process to the next. Every run computes and prints
// them; BENCHMARK.json lists them with the per-layer metrics.
var unbounded = []metricDef{
	{"loss_ppm", "ppm"},
	{"ooo_ppm", "ppm"},
	{"est_ooo_ppm", "ppm"},
	{"sim_drop_ppm", "ppm"},
	{"sim_ooo_ppm", "ppm"},
	{"sim_cold_ppm", "ppm"},
	{"latency_p50_us", "us"},
	{"latency_samples", "count"},
}

// perLayer is what a --trace 1 result line carries: the unbounded
// figures, then the metrics of the traced pass and the rungs.
var perLayer = append(unbounded[:len(unbounded):len(unbounded)], []metricDef{
	{"ingress.encode_ns_per_pkt", "ns"},
	{"ingress.decode_ns_per_pkt", "ns"},
	{"ingress.recv_ns_per_pkt", "ns"},
	{"ingress.send_ns_per_pkt", "ns"},
	{"ingress.sender_cpu_ns_per_pkt", "ns"},
	{"ingress.datagrams", "count"},
	{"ingress.batches", "count"},
	{"ingress.batch_fill_pct", "%"},
	{"ingress.vector_len", "count"},
	{"ingress.batch_grows", "count"},
	{"ingress.batch_shrinks", "count"},
	{"ingress.malformed", "count"},
	{"ingress.kernel_lost", "count"},
	{"ingress.socket_skew", "ratio"},

	{"crc.prime_ns_per_pkt", "ns"},

	{"runtime.dispatch_ns_per_pkt", "ns"},
	{"runtime.ring_ns_per_pkt", "ns"},
	{"runtime.stop_drain_ms", "ms"},
	{"runtime.latency_p50_us", "us"},
	{"runtime.latency_p99_us", "us"},
	{"runtime.ring_wait_p50_us", "us"},
	{"runtime.ring_wait_p99_us", "us"},
	{"runtime.batch_service_p50_us", "us"},
	{"runtime.fence_hold_p50_us", "us"},
	{"runtime.fence_hold_max_ms", "ms"},
	{"runtime.snapshot_staleness_max_us", "us"},
	{"runtime.migrations", "count"},
	{"runtime.fenced", "count"},
	{"runtime.forced", "count"},
	{"runtime.flow_budget_hits", "count"},
	{"runtime.evicted_flows", "count"},
	{"runtime.snapshots", "count"},
	{"runtime.feedback_dropped", "count"},
	{"runtime.avg_batch", "pkt"},
	{"runtime.worker_skew", "ratio"},

	{"core.target_ns_per_pkt", "ns"},
	{"core.forward_ns_per_pkt", "ns"},
	{"core.snapshot_us", "us"},
	{"core.migrations", "count"},
	{"core.core_requests", "count"},
	{"core.core_grants", "count"},
	{"core.surplus_marks", "count"},

	{"afd.observe_ns_per_pkt", "ns"},
	{"afd.observe_batch_ns_per_pkt", "ns"},
	{"afd.afc_hit_ratio", "ratio"},
	{"afd.promotions", "count"},

	{"flowtab.ref_hit_ns_per_op", "ns"},
	{"flowtab.ref_insert_ns_per_op", "ns"},
	{"flowtab.len", "count"},

	{"npsim.record_ns_per_pkt", "ns"},
	{"npsim.tracked_flows", "count"},

	{"sketch.record_ns_per_pkt", "ns"},
	{"sketch.bytes", "B"},

	{"sim.migrations", "count"},
	{"sim.map_splits", "count"},
	{"sim.core_steals", "count"},
	{"sim.afc_promotes", "count"},
	{"trace.next_ns_per_pkt", "ns"},

	{"telemetry.overhead_pct", "%"},

	{"feeder.ns_per_pkt", "ns"},
	{"gen.late_p99_us", "us"},
	{"gen.late_max_us", "us"},

	{"ladder.sum_ns_per_pkt", "ns"},
	{"ladder.unexplained_ns_per_pkt", "ns"},
	{"ladder.unexplained_pct", "%"},
}...)

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps metric names to numbers while a run is being assembled.
type values map[string]float64

// export pairs each declared metric with its value; a metric the
// workload has no reading for (a layer outside its path) reports 0.
func (v values) export(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// median is the reduction over repetitions (0 for none).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name: the calling OS thread's own CPU time.
const rusageThread = 1

// cpuTime reads user+system CPU time of the process (RUSAGE_SELF) or of
// the calling thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ppm(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 1e6
}

func perPkt(d time.Duration, pkts int) float64 {
	if pkts == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(pkts)
}
