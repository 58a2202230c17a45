package main

import (
	"time"

	"laps/internal/afd"
	"laps/internal/packet"
	"laps/internal/stats"
)

// reduceTraced reads the per-layer spans and counts out of each traced
// repetition and takes the median over repetitions. Counts come from the
// Result and Stats structs and from the telemetry registry handed to the
// engine through Config.Telemetry; nothing here adds tracing inside the
// program.
func reduceTraced(reps []*repOut, timedPPS float64) values {
	per := map[string][]float64{}
	var tracedPPS []float64
	for _, o := range reps {
		tracedPPS = append(tracedPPS, o.pps())
		var v values
		if o.simOut != nil {
			c := o.simOut.counts
			v = values{
				"sim.migrations": float64(c.Migrations), "sim.map_splits": float64(c.MapSplits),
				"sim.core_steals": float64(c.CoreSteals), "sim.afc_promotes": float64(c.AFCPromotes),
			}
		} else {
			v = liveLayers(o)
		}
		for k, x := range v {
			per[k] = append(per[k], x)
		}
	}
	out := values{}
	for k, xs := range per {
		out[k] = median(xs)
	}
	// The price of the traced pass: timed against traced throughput
	// (nil on engine_paced, whose rate is pinned).
	out["telemetry.overhead_pct"] = (timedPPS - median(tracedPPS)) / timedPPS * 100
	return out
}

// liveLayers is one traced live repetition's per-layer readings.
func liveLayers(o *repOut) values {
	r, tr, n := o.res, o.tracer, int(o.retired)
	v := values{
		"runtime.dispatch_ns_per_pkt": perPkt(tr.total(spDispatch), n),
		"runtime.stop_drain_ms":       float64(tr.total(spStop).Nanoseconds()) / 1e6,
		"ingress.send_ns_per_pkt":     perPkt(tr.total(spSend), n),

		"runtime.fence_hold_max_ms":         float64(r.MaxFenceHold.Nanoseconds()) / 1e6,
		"runtime.snapshot_staleness_max_us": float64(r.MaxSnapshotStaleness.Nanoseconds()) / 1e3,
		"runtime.migrations":                float64(r.Migrations),
		"runtime.fenced":                    float64(r.Fenced),
		"runtime.forced":                    float64(r.Forced),
		"runtime.flow_budget_hits":          float64(r.FlowBudgetHits),
		"runtime.evicted_flows":             float64(r.EvictedFlows),
		"runtime.snapshots":                 float64(r.Snapshots),
		"runtime.feedback_dropped":          float64(r.FeedbackDropped),
		"npsim.tracked_flows":               float64(r.TrackedFlows),

		"gen.late_p99_us": stats.Percentile(o.late, 99),
		"gen.late_max_us": stats.Percentile(o.late, 100),
	}
	var batches, most uint64
	for _, wr := range r.Workers {
		batches += wr.Batches
		if wr.Processed > most {
			most = wr.Processed
		}
	}
	if batches > 0 {
		v["runtime.avg_batch"] = float64(r.Processed) / float64(batches)
	}
	if r.Processed > 0 {
		v["runtime.worker_skew"] = float64(most) * float64(len(r.Workers)) / float64(r.Processed)
	}

	// Histograms the engine registered on the traced registry, in
	// seconds; p50/p99 are bucket upper bounds (at most 12.5 % high).
	snap := o.reg.Snapshot()
	hist := func(family, field string) float64 {
		h, _ := snap[family].(map[string]any)
		x, _ := h[field].(float64)
		return x
	}
	for name, q := range map[string][2]string{
		"runtime.latency_p50_us":       {"laps_packet_latency_seconds", "p50"},
		"runtime.latency_p99_us":       {"laps_packet_latency_seconds", "p99"},
		"runtime.ring_wait_p50_us":     {"laps_ring_wait_seconds", "p50"},
		"runtime.ring_wait_p99_us":     {"laps_ring_wait_seconds", "p99"},
		"runtime.batch_service_p50_us": {"laps_batch_service_seconds", "p50"},
		"runtime.fence_hold_p50_us":    {"laps_fence_hold_seconds", "p50"},
	} {
		v[name] = hist(q[0], q[1]) * 1e6
	}

	if l := o.laps; l != nil {
		st := l.Stats()
		v["core.migrations"] = float64(st.Migrations)
		v["core.core_requests"] = float64(st.CoreRequests)
		v["core.core_grants"] = float64(st.CoreGrants)
		v["core.surplus_marks"] = float64(st.SurplusMarks)
		var d afd.Stats
		for s := packet.ServiceID(0); s < packet.NumServices; s++ {
			ds := l.Detector(s).Stats()
			d.Sampled += ds.Sampled
			d.AFCHits += ds.AFCHits
			d.Promotions += ds.Promotions
		}
		if d.Sampled > 0 {
			v["afd.afc_hit_ratio"] = float64(d.AFCHits) / float64(d.Sampled)
		}
		v["afd.promotions"] = float64(d.Promotions)
	}

	if in := o.ingress; in != nil {
		v["runtime.dispatch_ns_per_pkt"] = perPkt(time.Duration(o.sinkNs.Load()), n)
		v["ingress.sender_cpu_ns_per_pkt"] = perPkt(o.senderCPU, n)
		v["ingress.datagrams"] = float64(in.Datagrams)
		v["ingress.batches"] = float64(in.Batches)
		v["ingress.batch_fill_pct"] = hist("laps_ingress_batch_fill_percent", "mean")
		v["ingress.vector_len"] = float64(in.VectorLen)
		v["ingress.batch_grows"] = float64(in.BatchGrows)
		v["ingress.batch_shrinks"] = float64(in.BatchShrinks)
		v["ingress.malformed"] = float64(in.Malformed)
		if o.offered > in.Packets {
			v["ingress.kernel_lost"] = float64(o.offered - in.Packets)
		}
		var most uint64
		for _, s := range o.sockets {
			if s.Packets > most {
				most = s.Packets
			}
		}
		if in.Packets > 0 {
			v["ingress.socket_skew"] = float64(most) * float64(len(o.sockets)) / float64(in.Packets)
		}
	}
	return v
}

// addLadder sets the sum of the workload's rungs against the timed
// cpu_ns_per_pkt; the remainder is what no rung explains — goroutine
// hand-offs, scheduling, cache misses between layers — and the next
// optimisation target.
func addLadder(w *workload, layer values, cpuPerPkt float64) {
	var sum float64
	for _, s := range w.ladder {
		sum += layer[s.metric] * s.times
	}
	layer["ladder.sum_ns_per_pkt"] = sum
	layer["ladder.unexplained_ns_per_pkt"] = cpuPerPkt - sum
	if cpuPerPkt > 0 {
		layer["ladder.unexplained_pct"] = (cpuPerPkt - sum) / cpuPerPkt * 100
	}
}
