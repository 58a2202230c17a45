package npsim

import (
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/stats"
)

// MemoryClass is the single flow-state regime there is: FlowBudget alone
// bounds per-flow state (TrackerConfig.FlowBudget, Config.FlowBudget).
// The type and its one value stay only because the frozen benchmark
// (cmd/lapsbench) names them; the live runtime rejects any other value.
type MemoryClass uint8

// MemoryAuto is the zero MemoryClass and the only valid one.
const MemoryAuto MemoryClass = 0

// TrackerConfig configures a ReorderTracker. The zero value is an
// unbounded exact tracker with the default size hint.
type TrackerConfig struct {
	// SizeHint pre-sizes the exact table for about this many flows
	// (default 1<<14). Sharded callers pass small hints so the combined
	// tables stay cache-resident.
	SizeHint int
	// FlowBudget bounds per-flow state. 0 = exact and unbounded. Past
	// it — once the exact table holds more flows than the budget — the
	// tracker switches to a sampled witness holding a sixteenth of the
	// budget, at least 64 flows.
	FlowBudget int
}

// ReorderTracker detects out-of-order departures at egress: a packet is
// out of order if some packet of the same flow with a *larger* flow
// sequence number already departed. Dropped packets leave gaps but gaps
// are not reorderings.
//
// Memory behavior: exact, the tracker keeps one 16-byte watermark (high
// seq + its departure time) per distinct flow key ever recorded and
// never evicts — flow state cannot be aged out without risking false
// negatives on late stragglers. Memory therefore grows linearly with
// the number of distinct flows (~29 bytes of key+value per flow plus
// table overhead; about 5 MB per million flows). TrackerConfig.FlowBudget
// bounds this: once the table holds more flows than the budget, the
// tracker switches to a sampled witness, keeping exact watermarks only
// for a hashed sample of flows plus every flow the caller moved
// (MarkMoved), seeded from the exact table. The witness never flags an
// in-order packet, and misses only reorderings of flows it does not
// hold; OOO recorded while sampling is additionally counted in
// EstimatedOOO, and ScaledOOO scales it up to all flows.
type ReorderTracker struct {
	// next holds, per flow, one past the highest FlowSeq that has
	// departed plus the time that packet departed (the reorder-lag
	// reference point). Open-addressed and keyed by tableHash, one hash
	// and one probe per flow run (RecordRun), and no allocation in
	// steady state.
	next *flowtab.Table[watermark]
	ooo  uint64

	budget     int      // exact→witness switch threshold; 0 = never
	w          *witness // nil without a budget
	sampling   bool     // records go to w; the exact table is released
	estimated  uint64   // OOO flagged while sampling
	scaled     uint64   // estimated, each control-group detection weighted 2^level
	budgetHits uint64   // exact→witness switches
}

// watermark is one flow's reorder state: one past the highest FlowSeq
// that has departed, and when that packet departed.
type watermark struct {
	next uint64
	t    sim.Time
}

// NewTracker builds a tracker from a TrackerConfig.
func NewTracker(cfg TrackerConfig) *ReorderTracker {
	r := &ReorderTracker{budget: cfg.FlowBudget}
	hint := cfg.SizeHint
	if cfg.FlowBudget > 0 {
		r.w = newWitness(witnessCap(cfg.FlowBudget))
		if hint <= 0 {
			hint = min(1<<14, cfg.FlowBudget)
		}
	}
	if hint <= 0 {
		hint = 1 << 14
	}
	r.next = flowtab.New[watermark](hint)
	return r
}

// Record notes one departing packet and reports whether it was out of
// order.
func (r *ReorderTracker) Record(p *packet.Packet) bool {
	ooo, _, _ := r.RecordAt(p, 0)
	return ooo
}

// RecordAt notes one departing packet at departure time now and, when
// the packet is out of order, reports its reorder extent: lagPkts is
// how many sequence numbers behind the flow's high-water mark it
// arrived, lagTime how long after the overtaking packet it departed
// (0 when now or the stored watermark time is unavailable). The two
// extents are the per-event distributions the live telemetry
// histograms aggregate — reordering *extent*, not count, is what
// diagnoses migration pathologies. It is RecordRun's one-packet case.
func (r *ReorderTracker) RecordAt(p *packet.Packet, now sim.Time) (ooo bool, lagPkts uint64, lagTime sim.Time) {
	one := [1]*packet.Packet{p}
	_, ooo, lagPkts, lagTime = r.record(one[:], now, false)
	return ooo, lagPkts, lagTime
}

// RecordRun notes the departures of a prefix of ps, in order, with one
// probe of the flow's watermark: the packets that share ps[0]'s flow,
// up to and including the first one out of order. It returns how many
// it recorded and the verdict and extents of the last — exactly what
// RecordAt reports for each of them in turn, every one before the last
// being in order. A caller loops until ps is used up; a lane stages a
// flow run contiguously, so each flow run costs one probe unless it
// reorders. Each packet departs at p.Departed when stamped, else at 0
// (no time stamps kept). Past the budget the witness records one packet
// per call.
func (r *ReorderTracker) RecordRun(ps []*packet.Packet, stamped bool) (n int, ooo bool, lagPkts uint64, lagTime sim.Time) {
	return r.record(ps, 0, stamped)
}

// record is RecordRun with every unstamped departure at now.
func (r *ReorderTracker) record(ps []*packet.Packet, now sim.Time, stamped bool) (int, bool, uint64, sim.Time) {
	p := ps[0]
	if stamped {
		now = p.Departed
	}
	if r.sampling {
		ooo, lagPkts, lagTime := r.recordWitness(p, now)
		return 1, ooo, lagPkts, lagTime
	}
	if r.budget > 0 && r.next.Len() > r.budget {
		// The previous insert crossed the budget: switch to the witness
		// and record there from now on.
		r.startWitness()
		ooo, lagPkts, lagTime := r.recordWitness(p, now)
		return 1, ooo, lagPkts, lagTime
	}
	// Ref inserts a zero watermark on first sight, which the first
	// packet, always in order, overwrites.
	w := r.next.Ref(p.Flow, tableHash(&p.Flow))
	if r.budget > 0 && r.next.Len() > r.budget {
		// That insert crossed the budget: the next packet goes to the
		// witness, as a RecordAt of it would.
		ps = ps[:1]
	}
	return r.walk(ps, w, now, stamped)
}

// walk records ps's leading run of w's flow against w, the flow's
// watermark, holding it in registers: it stops after the first packet
// out of order (which leaves the watermark as it was), before the first
// packet of another flow, or at the end of ps.
func (r *ReorderTracker) walk(ps []*packet.Packet, w *watermark, now sim.Time, stamped bool) (int, bool, uint64, sim.Time) {
	f := &ps[0].Flow
	next, t := w.next, w.t
	n := 0
	for _, q := range ps {
		if q.Flow != *f {
			break
		}
		if stamped {
			now = q.Departed
		}
		n++
		if q.FlowSeq+1 <= next {
			w.next, w.t = next, t
			r.ooo++
			var lagTime sim.Time
			if now > t {
				lagTime = now - t
			}
			return n, true, next - 1 - q.FlowSeq, lagTime
		}
		next, t = q.FlowSeq+1, now
	}
	w.next, w.t = next, t
	return n, false, 0, 0
}

// tableHash is the 16-bit hash the exact table keys a flow on: the low
// bits of its witness hash, not its CRC16. A live tracker shard holds
// only flows whose CRC16s share a residue mod 32 (runtime's shard
// function), so homing them on the CRC16 would crowd each shard's table
// onto a 32nd of its slots.
func tableHash(f *packet.FlowKey) uint16 { return uint16(witnessHash(f)) }

// recordWitness is the record path past the budget: exact against the
// flow's resident entry, nothing for a flow the witness does not hold.
func (r *ReorderTracker) recordWitness(p *packet.Packet, now sim.Time) (bool, uint64, sim.Time) {
	e := r.w.ref(&p.Flow, p.FlowSeq)
	if e == nil {
		return false, 0, 0
	}
	if p.FlowSeq+1 > e.next {
		e.next, e.t = p.FlowSeq+1, now
		return false, 0, 0
	}
	r.ooo++
	r.estimated++
	if e.moved {
		r.scaled++
	} else {
		r.scaled += 1 << r.w.level
	}
	var lagTime sim.Time
	if now > e.t {
		lagTime = now - e.t
	}
	return true, e.next - 1 - p.FlowSeq, lagTime
}

// startWitness switches the tracker from exact to sampled mode:
// the exact watermark of every flow in the control group or the
// sensitive group moves into the witness — making room as it goes, so a
// table far over the witness's capacity raises the level — and the
// exact table is released.
func (r *ReorderTracker) startWitness() {
	r.sampling = true
	r.budgetHits++
	r.next.Range(func(k packet.FlowKey, _ uint16, wm watermark) bool {
		r.w.seed(k, wm)
		return true
	})
	r.next = flowtab.New[watermark](1 << 4)
}

// MarkMoved puts flow f in the witness's sensitive group: the caller is
// moving it to another queue (fencing, migrating or re-injecting it),
// so from here on its departures are recorded exactly, whatever its
// hash, until it goes quiet and is evicted. Call it before the moved
// packet can depart. A no-op without a budget.
func (r *ReorderTracker) MarkMoved(f packet.FlowKey) {
	if r.w != nil {
		r.w.mark(f)
	}
}

// Evicted reports how many flow watermarks the witness has discarded
// to make room; each is a potential missed reordering.
func (r *ReorderTracker) Evicted() uint64 {
	if r.w == nil {
		return 0
	}
	return r.w.evicted
}

// OutOfOrder returns the number of out-of-order departures so far
// (exact and estimated combined).
func (r *ReorderTracker) OutOfOrder() uint64 { return r.ooo }

// EstimatedOOO returns how many of the out-of-order departures were
// counted while the tracker was sampling: real reorderings of witnessed
// flows, a subset of the reorderings of all flows. Zero while the
// tracker is exact.
func (r *ReorderTracker) EstimatedOOO() uint64 { return r.estimated }

// ScaledOOO estimates the out-of-order departures of all flows: the
// exact count from before the tracker sampled, plus each sampled
// detection weighted by the inverse of its flow's chance of being
// witnessed — 2^level (at the time) in the control group, 1 in the
// sensitive group, which holds every moved flow.
func (r *ReorderTracker) ScaledOOO() uint64 { return r.ooo - r.estimated + r.scaled }

// Level returns the witness's control-group level: the control group is
// a 2^-Level sample of all flows (InControlGroup). 0 while exact.
func (r *ReorderTracker) Level() int {
	if r.w == nil {
		return 0
	}
	return r.w.level
}

// BudgetHits returns how many times the tracker crossed its flow budget
// and switched from exact to sampled state (0 or 1 per run).
func (r *ReorderTracker) BudgetHits() uint64 { return r.budgetHits }

// Flows returns the number of distinct flows tracked exactly — the
// table's memory footprint is proportional to this. While sampling it
// is the witness's resident count, at most its capacity.
func (r *ReorderTracker) Flows() int {
	if r.sampling {
		return r.w.tab.Len()
	}
	return r.next.Len()
}

// Reset discards all per-flow watermarks and zeroes the counters,
// releasing the tracker's memory. Use at run boundaries when a single
// tracker outlives many traffic windows. The budget is kept; a tracker
// that was sampling reverts to exact, and the witness to its full
// control group.
func (r *ReorderTracker) Reset() {
	// Keep the already-allocated slots (their size is already bounded
	// by the constructor's hint plus observed growth).
	r.next.Reset()
	if r.w != nil {
		r.w.reset()
	}
	*r = ReorderTracker{next: r.next, budget: r.budget, w: r.w}
}

// Metrics aggregates everything the paper's figures report.
type Metrics struct {
	Injected  uint64 // packets offered to the scheduler
	Enqueued  uint64 // packets accepted into some queue
	Dropped   uint64 // packets lost to full queues (Fig 7a / 9a)
	Completed uint64 // packets fully processed

	OutOfOrder  uint64 // out-of-order departures (Fig 7c / 9b)
	ColdCache   uint64 // packets paying the I-cache cold penalty (Fig 7b)
	Migrations  uint64 // flow-to-new-core transitions (Fig 9c)
	FMPenalties uint64 // packets paying the flow-migration penalty

	// EstimatedOOO is the subset of OutOfOrder counted while the tracker
	// sampled past the flow budget (real reorderings of witnessed
	// flows); FlowBudgetHits counts budget-crossing degrade events across
	// the tracker and the flow-affinity table. Both 0 on exact runs.
	EstimatedOOO   uint64
	FlowBudgetHits uint64

	PerSvcInjected [packet.NumServices]uint64
	PerSvcDropped  [packet.NumServices]uint64
	PerSvcDone     [packet.NumServices]uint64

	TotalLatency sim.Time // sum over completed packets of departure-arrival
	BusyTime     sim.Time // sum of per-core busy time

	// Latency is a log2 histogram (ns) of arrival→departure times per
	// service, for tail-latency reporting ("latency sensitive network
	// processors", paper §I).
	Latency [packet.NumServices]stats.Histogram
}

// LatencyP99 returns an upper bound for the service's 99th-percentile
// latency.
func (m *Metrics) LatencyP99(s packet.ServiceID) sim.Time {
	return sim.Time(m.Latency[s].Quantile(0.99))
}

// LatencyMean returns the service's mean latency.
func (m *Metrics) LatencyMean(s packet.ServiceID) sim.Time {
	return sim.Time(m.Latency[s].Mean())
}

// DropRate returns dropped/injected (0 when nothing was injected).
func (m *Metrics) DropRate() float64 {
	if m.Injected == 0 {
		return 0
	}
	return float64(m.Dropped) / float64(m.Injected)
}

// OOORate returns out-of-order departures per completed packet.
func (m *Metrics) OOORate() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.OutOfOrder) / float64(m.Completed)
}

// ColdCacheRate returns the fraction of completed packets that paid the
// cold-cache penalty.
func (m *Metrics) ColdCacheRate() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.ColdCache) / float64(m.Completed)
}

// MeanLatency returns the average arrival-to-departure latency.
func (m *Metrics) MeanLatency() sim.Time {
	if m.Completed == 0 {
		return 0
	}
	return m.TotalLatency / sim.Time(m.Completed)
}
