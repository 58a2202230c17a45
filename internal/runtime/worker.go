package runtime

import (
	"runtime"
	"sync/atomic"
	"time"

	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// WorkKind selects how a worker emulates per-packet processing cost.
type WorkKind int

const (
	// WorkNone retires packets with no emulated cost: the run measures
	// pure scheduling + ring overhead.
	WorkNone WorkKind = iota
	// WorkSpin busy-loops for the packet's modeled service time scaled
	// by WorkFactor — CPU-bound processing, which scales with physical
	// cores.
	WorkSpin
	// WorkSleep sleeps once per consumed batch for the batch's summed
	// modeled service time scaled by WorkFactor — latency-bound
	// processing (crypto offload, DMA waits), which scales with worker
	// count even on few physical cores.
	WorkSleep
)

// Consumer-ownership states. The worker and the recovery path arbitrate
// who may touch the ring's consumer side through this single atomic:
// exactly one party holds it at a time, so a quarantined worker can
// never race the dispatcher draining its ring.
const (
	// wsIdle: the worker is between batches (or parked in a stall) and
	// is not touching the ring. Recovery may seize from here.
	wsIdle int32 = iota
	// wsActive: the worker holds the consumer role — popping, working,
	// retiring. Not seizable.
	wsActive
	// wsDead: terminal. Either the worker exited (normal drain-out or a
	// kill fault) or recovery seized the ring. A worker that finds this
	// state returns immediately without another ring access.
	wsDead
)

// slowBatchDelay is the extra per-batch latency a FaultSlow worker pays
// while its slow window is open — enough to degrade throughput, small
// enough that progress stays visible to the health monitor.
const slowBatchDelay = 50 * time.Microsecond

// worker is one emulated core: a goroutine consuming one SPSC ring per
// lane. Engine, a single dispatcher, gives every worker exactly one
// ring; the sharded engine gives it one ring per ingress shard, so
// every (shard, worker) pair keeps a single producer and a single
// consumer and the whole data plane stays lock-free.
//
// All cross-goroutine fields are atomics: the dispatcher reads
// processed/inflight/idleSince to answer scheduler View queries and to
// resolve migration fences; the sampler goroutine reads the counters
// for time-series probes; the health monitor reads state and faultAt.
type worker struct {
	id    int
	rings []*Ring
	// retired[s] counts packets from rings[s] fully retired here. It is
	// the per-shard migration-fence signal: shard s may move a flow off
	// this worker once retired[s] passes the flow's last enqueue seq.
	retired []atomic.Uint64

	processed atomic.Uint64 // packets fully retired
	inflight  atomic.Int64  // popped from the ring but not yet retired
	ooo       atomic.Uint64 // out-of-order departures observed here
	batches   atomic.Uint64 // non-empty ring consume batches
	idleSince atomic.Int64  // runtime-clock ns when the ring went empty; -1 = busy
	state     atomic.Int32  // wsIdle / wsActive / wsDead (see above)
	faultAt   atomic.Int64  // runtime-clock ns when a stall/kill fault fired; 0 = none

	tracker *sharedTracker
	rec     *obs.Recorder // private per-worker recorder, merged at stop
	tel     *engineTel    // nil when live telemetry is off; lane = worker id
	now     func() sim.Time

	work       WorkKind
	workFactor float64
	services   [packet.NumServices]npsim.ServiceDef
	handler    func(worker int, p *packet.Packet)
	pool       *packet.Pool // nil = no recycling; PutBatch is nil-safe

	// Fault injection state, read only by this worker's goroutine.
	faults    []Fault
	faultIdx  int
	slowUntil time.Time

	touched uint64 // sink that keeps consume's pre-touch loads alive
}

// run is the worker goroutine body: sweep the rings, draining one batch
// from each per active window, until every ring is closed and empty, or
// until a kill fault or a recovery seizure ends the worker. Normal exits
// are graceful — each producer closes its ring after its last push, so
// no packet is stranded.
func (w *worker) run(batch int) {
	buf := make([]*packet.Packet, batch)
	idleSpins := 0
	for {
		if !w.state.CompareAndSwap(wsIdle, wsActive) {
			// Recovery seized the rings while we were parked or stalled:
			// it now owns the consumer side. Exit without touching them.
			return
		}
		got, closedEmpty := 0, 0
		for s, r := range w.rings {
			n := r.PopBatch(buf)
			if n == 0 {
				if r.Closed() && r.Len() == 0 {
					closedEmpty++
				}
				continue
			}
			got += n
			w.consume(s, buf, n)
		}
		if got == 0 {
			if closedEmpty == len(w.rings) {
				w.state.Store(wsDead)
				return
			}
			if w.idleSince.Load() < 0 {
				w.idleSince.Store(int64(w.now()))
			}
			w.state.Store(wsIdle)
			if w.applyFault() {
				return
			}
			// Back off progressively: stay hot for a few rounds (packets
			// arrive in bursts), then yield, then sleep so idle workers
			// do not starve the dispatcher on small machines. The 20 µs
			// is a floor, not the wait: waking a parked M takes a kernel
			// timer, and time.Sleep(20µs) returns after about a
			// millisecond on a stock host (docs/PERFORMANCE.md, "Priced
			// and left alone"), so a worker that got this far adds up to
			// one timer tick to the next packet's latency.
			idleSpins++
			switch {
			case idleSpins < 16:
				runtime.Gosched()
			default:
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idleSpins = 0
		w.state.Store(wsIdle)
		if w.applyFault() {
			return
		}
	}
}

// consume retires one batch popped from rings[src]. Runs only on the
// worker goroutine, inside a wsActive window.
//
// Everything that crosses cores is paid once per batch: inflight,
// retired[src] and processed tick at the end, and the descriptors go
// back to the pool in one PutBatch. Coarser counters are safe. The
// migration fence only ever sees a retired count that lags the true
// value, so a fence can release late, never early; and inflight covers
// the whole batch until the final store, so queueLen never
// under-reports in-service packets.
//
// Departures are recorded under one tracker-shard lock per consecutive
// same-shard run (flow-grouped bursts arrive as same-flow runs, so that
// is typically one lock per flow run). The handler runs outside the
// lock, on the run's packets, before any of them is recorded.
//
// Telemetry clock discipline: with tel enabled the batch pays one clock
// read at pop (ring wait reference), one per packet after its handler
// (latency, reorder lag — carried to the tracker in p.Departed) and one
// at the end (batch service time) — all recorded into this worker's
// private histogram lane, so recording never contends and never
// allocates. Ring wait therefore includes any emulated WorkSleep time
// only in the per-packet latency, not in the wait itself.
func (w *worker) consume(src int, buf []*packet.Packet, n int) {
	w.idleSince.Store(-1)
	w.inflight.Store(int64(n))
	w.batches.Add(1)
	tel := w.tel
	var popT sim.Time
	if tel != nil {
		popT = w.now()
	}
	if !w.slowUntil.IsZero() {
		if time.Now().Before(w.slowUntil) {
			time.Sleep(slowBatchDelay)
		} else {
			w.slowUntil = time.Time{}
		}
	}
	if w.work == WorkSleep {
		// The batch's emulated service time must elapse BEFORE any
		// packet is retired: departure order and the migration fence
		// both key on the retired count, so retiring first would let
		// a fence clear (and QueueLen read zero) while the modeled
		// work is still pending.
		var modeled sim.Time
		for i := 0; i < n; i++ {
			modeled += w.services[buf[i].Service].ProcTime(buf[i].Size)
		}
		if modeled > 0 {
			time.Sleep(time.Duration(float64(modeled) * w.workFactor))
		}
	}
	// With more work still waiting in the ring, take the batch's
	// descriptor cache misses together. The dispatcher's core wrote
	// these lines last; left to the loop below, each packet's first
	// touch sits behind the previous packet's tracker lock, and a locked
	// instruction keeps the loads from overlapping. A worker that has
	// emptied its ring is ahead of its producer and gains nothing by
	// hurrying: it only comes back sooner for smaller batches, which cost
	// engine_elephants 3–6 % pps when this ran unconditionally
	// (docs/PERFORMANCE.md, "Priced and left alone").
	if w.rings[src].Len() > 0 {
		var touched uint64
		for _, p := range buf[:n] {
			touched |= p.ID
		}
		w.touched = touched
	}
	var ooo uint64
	for i := 0; i < n; {
		si := trackerShardOf(buf[i])
		j := i
		for ; j < n && trackerShardOf(buf[j]) == si; j++ {
			p := buf[j]
			if w.work == WorkSpin {
				w.spin(time.Duration(float64(w.services[p.Service].ProcTime(p.Size)) * w.workFactor))
			}
			if w.handler != nil {
				w.handler(w.id, p)
			}
			if tel != nil {
				p.Departed = w.now()
				tel.ringWait.Record(w.id, int64(popT-p.Enqueued))
				tel.latency.Record(w.id, int64(p.Departed-p.Enqueued))
			}
		}
		// One record per flow run: the lane staged each run contiguously,
		// so the tracker probes a flow's watermark once for all of it.
		// Without telemetry the tracker keeps no time stamps.
		sh := &w.tracker.shards[si]
		sh.mu.Lock()
		for i < j {
			m, late, lagPkts, lagTime := sh.t.RecordRun(buf[i:j], tel != nil)
			i += m
			if !late {
				continue
			}
			p := buf[i-1]
			ooo++
			if tel != nil {
				tel.reorderPkts.Record(w.id, int64(lagPkts))
				tel.reorderTime.Record(w.id, int64(lagTime))
			}
			if w.rec != nil {
				w.rec.Emit(obs.Event{Kind: obs.EvOOODepart, Service: int16(p.Service),
					Core: int32(w.id), Core2: -1, Flow: p.Flow, Val: int64(p.FlowSeq)})
			}
		}
		sh.mu.Unlock()
	}
	if ooo > 0 {
		w.ooo.Add(ooo)
	}
	// Retirement is the batch's end of life: nothing below reads a
	// packet, so they go back to the pool before the counters tick over.
	w.pool.PutBatch(buf[:n])
	w.inflight.Store(0)
	w.retired[src].Add(uint64(n))
	w.processed.Add(uint64(n))
	if tel != nil {
		tel.batchSvc.Record(w.id, int64(w.now()-popT))
	}
}

// applyFault fires the worker's next scheduled fault once its retired
// count reaches the trigger. Called only at batch boundaries with state
// == wsIdle, so a stalled worker is always seizable and a kill never
// abandons popped-but-unretired packets. Returns true when the worker
// must exit (kill).
func (w *worker) applyFault() bool {
	if w.faultIdx >= len(w.faults) {
		return false
	}
	f := w.faults[w.faultIdx]
	if w.processed.Load() < f.After {
		return false
	}
	w.faultIdx++
	switch f.Kind {
	case FaultStall:
		w.faultAt.Store(int64(w.now()))
		time.Sleep(f.Duration)
	case FaultSlow:
		w.slowUntil = time.Now().Add(f.Duration)
	case FaultKill:
		w.faultAt.Store(int64(w.now()))
		w.state.Store(wsDead)
		return true
	}
	return false
}

// seize takes the rings' consumer role away from the worker so the
// dispatcher (or, in sharded mode, each shard for its own ring) can
// drain them. It succeeds when the worker is parked (wsIdle — including
// mid-stall) or already dead; it fails for a worker wedged mid-batch
// (wsActive), which recovery must then leave alone.
func (w *worker) seize() bool {
	for i := 0; i < 1024; i++ {
		if w.state.CompareAndSwap(wsIdle, wsDead) || w.state.Load() == wsDead {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// spin busy-waits for roughly d without yielding the processor, the
// closest a goroutine gets to an IOP core crunching a packet.
func (w *worker) spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// queueLen is the worker's occupancy as the scheduler should see it:
// ring backlog plus packets popped but not yet retired (the "in
// service" slot npsim counts the same way). A WorkSleep batch counts as
// in-service for its whole emulated duration.
func (w *worker) queueLen() int {
	n := int(w.inflight.Load())
	for _, r := range w.rings {
		n += r.Len()
	}
	if n < 0 {
		n = 0
	}
	return n
}

// idleFor reports how long the worker has been out of work at runtime
// clock instant now, zero if it is (or should be) busy.
func (w *worker) idleFor(now sim.Time) sim.Time {
	if w.queueLen() > 0 {
		return 0
	}
	since := w.idleSince.Load()
	if since < 0 {
		return 0
	}
	d := now - sim.Time(since)
	if d < 0 {
		return 0
	}
	return d
}
