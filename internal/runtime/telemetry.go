package runtime

import (
	"strconv"
	"sync/atomic"

	"laps/internal/obs/telemetry"
)

// noteMax raises *m to v with a CAS loop: lanes on different goroutines
// race on the shared maxima, so a plain load/store could lose the true
// maximum.
func noteMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// engineTel bundles the live engines' histogram handles. The zero
// value is fully disabled: every field is a nil *telemetry.Hist whose
// Record is a no-op, so instrument sites call Record unconditionally
// and test `on` only to skip clock reads.
//
// Lane discipline (histograms are single-writer per lane):
//
//   - latency/ringWait/batchSvc/reorder*: lane = worker id, written by
//     that worker's goroutine only.
//   - fenceHold/recovery: lane = dispatch lane id (Engine has
//     exactly one, lane 0).
type engineTel struct {
	on bool

	latency     *telemetry.Hist // dispatch → retirement, ns
	ringWait    *telemetry.Hist // dispatch → batch pop, ns
	batchSvc    *telemetry.Hist // batch pop → last retirement, ns
	reorderPkts *telemetry.Hist // seq-number lag of an OOO departure
	reorderTime *telemetry.Hist // time lag of an OOO departure, ns
	fenceHold   *telemetry.Hist // fence open → release, ns
	recovery    *telemetry.Hist // recovery start → backlog re-injected, ns
}

// Exposed le-bound ranges: times from 2^7 ns (128 ns) to 2^34 ns
// (~17 s), reorder distances from 2^0 to 2^20 packets.
const (
	telTimeMinExp = 7
	telTimeMaxExp = 34
	telPktMinExp  = 0
	telPktMaxExp  = 20
)

// newEngineTel registers the histogram families on reg: worker-lane
// histograms with one lane per worker, dispatch-lane histograms with
// one lane per dispatch lane.
func newEngineTel(reg *telemetry.Registry, workers, lanes int) engineTel {
	timeHist := func(name, help string, n int) *telemetry.Hist {
		return reg.NewHist(telemetry.HistOpts{
			Name: name, Help: help, Scale: 1e-9,
			MinExp: telTimeMinExp, MaxExp: telTimeMaxExp, Lanes: n,
		})
	}
	return engineTel{
		on:       true,
		latency:  timeHist("laps_packet_latency_seconds", "End-to-end packet latency, dispatch to retirement.", workers),
		ringWait: timeHist("laps_ring_wait_seconds", "Time a packet waited between dispatch and its worker popping it.", workers),
		batchSvc: timeHist("laps_batch_service_seconds", "Worker service time per consumed batch.", workers),
		reorderPkts: reg.NewHist(telemetry.HistOpts{
			Name: "laps_reorder_lag_packets", Help: "Sequence-number distance an out-of-order packet arrived behind its flow's high-water mark.",
			MinExp: telPktMinExp, MaxExp: telPktMaxExp, Lanes: workers,
		}),
		reorderTime: timeHist("laps_reorder_lag_seconds", "Time an out-of-order packet departed after the packet that overtook it.", workers),
		fenceHold:   timeHist("laps_fence_hold_seconds", "Drain-fence hold duration, first fenced packet to release.", lanes),
		recovery:    timeHist("laps_recovery_seconds", "Worker recovery duration, seize to backlog re-injected.", lanes),
	}
}

// forWorkers returns the handle workers should hold: nil when
// telemetry is off, so the worker's record sites stay a single branch.
func (t *engineTel) forWorkers() *engineTel {
	if !t.on {
		return nil
	}
	return t
}

func workerLabel(i int) string { return `worker="` + strconv.Itoa(i) + `"` }

// witnessLevel is the sparsest control group across the tracker's
// shards — the highest witness level — for the
// laps_reorder_witness_level gauge and Result.WitnessLevel.
func (s *sharedTracker) witnessLevel() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n = max(n, sh.t.Level())
		sh.mu.Unlock()
	}
	return n
}

// registerMetrics wires an engine's counters and gauges as scrape-time
// closures. Everything read here is an atomic, an immutable field or a
// mutex-guarded tracker sum, so scraping never races the lanes or the
// workers. Sharded adds its own families in NewSharded.
func registerMetrics(reg *telemetry.Registry, p *plane) {
	total := func(c int) func() uint64 {
		return func() uint64 { return p.total(c) }
	}
	reg.Counter("laps_dispatched_total", "Packets offered to the engine.", p.dispatched.Load)
	reg.Counter("laps_processed_total", "Packets retired by workers.", func() uint64 {
		var n uint64
		for _, w := range p.workers {
			n += w.processed.Load()
		}
		return n
	})
	reg.Counter("laps_dropped_total", "Packets lost at ingress, to full rings, or stranded at Stop.", p.droppedTotal)
	reg.Counter("laps_migrations_total", "Flows switched workers.", total(cMigrations))
	reg.Counter("laps_fenced_total", "Packets held on their old worker by a drain fence.", total(cFenced))
	reg.Counter("laps_ooo_total", "Out-of-order departures.", p.oooTotal)
	reg.Counter("laps_worker_stalls_total", "Stall detections by the health monitor.", p.stalls.Load)
	reg.Counter("laps_worker_deaths_total", "Workers quarantined.", p.deaths.Load)
	reg.Counter("laps_reinjected_total", "Stranded packets re-dispatched by recovery.", total(cReinjected))
	reg.Counter("laps_recovered_flows_total", "Flows remapped off dead workers.", total(cRecovered))
	reg.Counter("laps_forced_releases_total", "Fences force-released against undrainable workers.", total(cForced))
	if p.sp != nil {
		reg.Counter("laps_snapshots_total", "Forwarding views taken: control-plane publishes on Sharded, refreshes on Engine.", p.snapshots.Load)
	}
	// Bounded-memory (docs/SCALE.md) counters.
	reg.Counter("laps_estimated_ooo_total",
		"Out-of-order departures counted while reorder tracking sampled flows past the flow budget; a subset of laps_ooo_total, 0 in exact mode.",
		p.tracker.estimatedOOO)
	reg.Counter("laps_flow_budget_hits_total",
		"Flow-budget degrade events: reorder tracker shards switching from exact to a sampled witness.",
		p.tracker.budgetHits)
	reg.Counter("laps_evicted_flows_total",
		"Per-flow reorder watermarks evicted to stay inside the flow budget.",
		p.tracker.evicted)
	reg.Gauge("laps_reorder_witness_level",
		"Highest control-group level of the sampled reorder witness: it holds every moved flow plus a 2^-level sample of the rest. 0 while exact.",
		func() float64 { return float64(p.tracker.witnessLevel()) })
	reg.Gauge("laps_max_fence_hold_seconds", "Longest drain-fence hold so far.", func() float64 {
		return float64(p.maxFenceHold.Load()) * 1e-9
	})
	reg.Gauge("laps_max_detect_seconds", "Worst fault-to-quarantine latency so far.", func() float64 {
		return float64(p.maxDetect.Load()) * 1e-9
	})
	reg.Gauge("laps_workers_alive", "Workers running and not quarantined.", func() float64 {
		n := 0
		for i := range p.workers {
			if p.up(i) {
				n++
			}
		}
		return float64(n)
	})
	for i, w := range p.workers {
		reg.CounterL("laps_worker_processed_total", workerLabel(i),
			"Packets retired, per worker.", w.processed.Load)
		reg.GaugeL("laps_worker_queue_depth", workerLabel(i),
			"Ring backlog plus in-service packets, per worker.", func() float64 {
				return float64(w.queueLen())
			})
		reg.GaugeL("laps_worker_up", workerLabel(i),
			"1 while the worker is alive and not quarantined.", func() float64 {
				if p.up(i) {
					return 1
				}
				return 0
			})
	}
}
