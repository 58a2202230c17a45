package runtime

import (
	"fmt"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
)

// A lane is one single-producer dispatch path into the workers: it
// stages packets onto ring lane.id of every worker and owns the one
// rule the ordering guarantee rests on (docs/RUNTIME.md, "The lane"):
//
//	a flow may leave worker w only once w has retired past the flow's
//	last enqueue seq on this lane.
//
// Engine is one lane with the scheduler run inline; each Sharded shard
// is a lane behind an ingress ring. Both resolve flow runs against the
// scheduler's forwarding view and train it on the lane's sample
// (feedSampler); they differ only in when: Engine on each sampled run,
// a shard on a batch of them under Sharded's lock. (Engine also takes
// schedulers that publish no view, and asks those about every run.)
// Everything here runs on the owning goroutine; only the counters are
// read from elsewhere.

// flowState is a lane's record of where a flow's packets go and how far
// into that worker's sequence space its newest packet sits. The pair is
// the migration fence: the flow may only switch workers once the old
// worker's retired count passes seq. fencedAt is the span anchor: the
// runtime-clock instant the flow's first fenced packet was held (0 = no
// fence open), carried across dispatches until the fence releases so
// the hold duration is measurable end to end.
type flowState struct {
	core     int32
	seq      uint64
	fencedAt int64
}

// routing outcome of one fence resolution (see dispatchResolved).
const (
	routePlain = iota
	routeMigrated
	routeFenced
	routeForced
)

// Route counters, one set per lane; plane.total sums one across lanes.
const (
	cMigrations = iota // flows that switched workers
	cFenced            // packets held on their old worker by a fence
	cDropped           // packets lost to full rings, no live worker, or stranded at Stop
	cForced            // fences released against an undrainable worker
	cReinjected        // stranded packets re-dispatched by a drain
	cRecovered         // distinct flows remapped off quarantined workers
	numCounters
)

// workerHealth is the verdict on a worker that a lane routes against.
type workerHealth uint8

const (
	// whAlive: route to it normally.
	whAlive workerHealth = iota
	// whSeized: quarantined and drainable — every lane drains its own
	// ring into live workers, in order (drain).
	whSeized
	// whWedged: quarantined but seizure failed (wedged mid-batch); its
	// backlog is unrecoverable and fences against it are force-released.
	whWedged
)

// laneOwner is the off-fast-path seam between a lane and whoever feeds
// it: where targets come from and how worker health is decided. Both
// owners decide it on the lane's own goroutine — Engine always, a shard
// while it holds Sharded's lock — so a dead worker is quarantined where
// it is found.
type laneOwner interface {
	// reresolve is called when the world shifted under a routing
	// decision for p: worker dead (>= 0) has exited while the lane's
	// health view still calls it alive, or (dead < 0) a push gave up on
	// a ring whose worker was quarantined mid-wait. The owner lets the
	// health view catch up — Engine quarantines and drains on the spot,
	// a shard quarantines under the lock and adopts the view that says
	// so — and returns the target to retry with.
	reresolve(p *packet.Packet, target, dead int) int
	// ringFull is called once per BlockWhenFull wait round, after the
	// lane published what it had staged: the owner's chance to notice
	// that the full ring's worker is the one that died.
	ringFull()
}

// lane is a struct, not an interface: the per-packet path reads its
// fields directly.
type lane struct {
	*plane
	id    int // ring, retired-counter and telemetry-lane index on every worker
	owner laneOwner
	rec   *obs.Recorder

	// The health picture routed against. Engine's aliases the plane's
	// verdicts (it decides them on this goroutine); a shard re-points
	// both at each forwarding view it adopts.
	health []workerHealth
	live   []int // indices of whAlive workers

	staged [][]*packet.Packet
	enqSeq []uint64      // per worker: packets handed over (staged + pushed)
	burst  *burstScratch // flow-run grouping state
	occ    []int         // per-worker occupancy cache, valid within one chunk (-1 = stale)

	flows      *flowtab.Table[flowState]
	flowCap    int      // entries at which a new flow sweeps the table (newLane)
	retired    []uint64 // sweep scratch: each worker's retiredOn, read once per sweep
	budgetable bool     // the tracker may sample: moved flows must enter its witness

	n [numCounters]atomic.Uint64 // route counters; read by scrapers and Stop

	// sample picks which of the lane's flow runs train the scheduler, and
	// at what weight — in a shard's next training pass, inline for
	// Engine, where a sampled run follows the scheduler's answer and any
	// other the view's.
	sample feedSampler
}

// newLane builds lane id of p.nlanes over p's workers and registers it
// with the plane.
//
// The fence table is bounded by what the lane can have in flight, not by
// any knob: a worker holds at most Cap() + Batch of this lane's packets
// unretired — ring plus stage buffer never exceed the ring's capacity
// (push, dispatchGroup) and consume retires a whole batch at once — so
// at most that many flows per worker have an entry the fence still
// needs. A table swept at twice the lane's total always frees at least
// half of itself (rememberFlowSeen). It starts small and grows to the
// bound only if the traffic needs it.
func newLane(p *plane, id int, owner laneOwner, rec *obs.Recorder) *lane {
	flowCap := 2 * len(p.workers) * (p.workers[0].rings[id].Cap() + p.cfg.Batch)
	l := &lane{
		plane:   p,
		id:      id,
		owner:   owner,
		rec:     rec,
		health:  p.verdicts,
		live:    p.liveIdx,
		staged:  make([][]*packet.Packet, len(p.workers)),
		enqSeq:  make([]uint64, len(p.workers)),
		burst:   newBurstScratch(),
		occ:     make([]int, len(p.workers)),
		flows:   flowtab.New[flowState](min(flowCap, 1<<14/p.nlanes)),
		flowCap: flowCap,
		retired: make([]uint64, len(p.workers)),
		budgetable: p.cfg.Memory == npsim.MemorySketch ||
			(p.cfg.FlowBudget > 0 && p.cfg.Memory == npsim.MemoryAuto),
	}
	for w := range l.staged {
		l.staged[w] = make([]*packet.Packet, 0, p.cfg.Batch)
	}
	l.sample = newFeedSampler(id)
	p.lanes = append(p.lanes, l)
	return l
}

// retiredOn is the fence signal: how many of the packets this lane
// enqueued on worker w have been fully retired.
func (l *lane) retiredOn(w int) uint64 {
	return l.workers[w].retired[l.id].Load()
}

// sweep forgets every flow with no packet left unretired on this lane.
// Such a flow's next packet starts it fresh, so it can go anywhere
// without counting a migration. An entry forgotten while its fence span
// is still open ends the span here: the fence released with no packet
// of the flow there to see it. Each worker's retired count is read
// once, not once per entry, off the cache lines the workers write every
// batch; a stale count only keeps an entry longer.
func (l *lane) sweep() {
	for w := range l.retired {
		l.retired[w] = l.retiredOn(w)
	}
	freed := l.flows.Sweep(func(f packet.FlowKey, _ uint16, st flowState) bool {
		if l.retired[st.core] < st.seq {
			return false
		}
		l.endFence(f, -1, -1, int(st.core), st.fencedAt)
		return true
	})
	if sweepHook != nil {
		sweepHook(l, freed)
	}
}

// sweepHook, when set, sees every sweep on the lane's goroutine, with
// the number of entries it freed. Tests only.
var sweepHook func(l *lane, freed int)

// dispatchResolved routes one packet whose target the owner already
// resolved: fencing adjusts for in-flight ordering and the packet is
// staged. Reports whether it was accepted (false = dropped).
//
// Resolution runs in a loop because the world can shift mid-dispatch —
// a worker found dead, a recovery, a new view. Each time the owner
// re-resolves (laneOwner.reresolve) and the route is decided again, so
// every decision lands on post-recovery state.
func (l *lane) dispatchResolved(p *packet.Packet, target int) bool {
	h := crc.PacketHash(p)
	for {
		t := target
		if l.health[t] != whAlive {
			if t = l.reroute(h); t < 0 {
				l.countDrop(p, target) // no live worker reachable
				return false
			}
		} else if l.workers[t].state.Load() == wsDead {
			target = l.owner.reresolve(p, target, t)
			continue
		}
		kind := routePlain
		st, seen := l.flows.Get(p.Flow, h)
		want := t
		if old := int(st.core); seen && old != t {
			switch {
			case l.cfg.DisableFencing || l.retiredOn(old) >= st.seq:
				// The old worker retired every packet of this flow (or we
				// were asked not to care): the switch is ordering-safe.
				kind = routeMigrated
			case l.health[old] == whAlive && l.workers[old].state.Load() == wsDead:
				// Fenced to a worker that died undetected. Once it is
				// quarantined the drain re-injects the fenced backlog in
				// order and remaps the flow; then re-resolve.
				target = l.owner.reresolve(p, target, old)
				continue
			case l.health[old] != whAlive:
				// Quarantined but the flow's unretired packets were not
				// recovered (wedged worker): they are stuck forever, and
				// holding the fence would wedge the flow too. Release it,
				// counted, and accept the bounded reordering risk.
				kind = routeForced
			default:
				// Fence: the flow stays on its old worker until the drain
				// completes, so its in-flight packets cannot be overtaken.
				kind = routeFenced
				t = old
			}
		}
		if kind != routePlain && l.budgetable {
			// The witness must hold the flow before a moved packet can
			// depart, or a reordering against it goes unseen.
			l.tracker.markMoved(p.Flow, h)
		}
		// Copy the key (and the event fields) before push: once the
		// packet is published to the ring the worker may retire it and
		// hand it back to the pool, so p must not be read again.
		f := p.Flow
		svc := p.Service
		ok, retry := l.push(p, t)
		if retry {
			target = l.owner.reresolve(p, target, -1)
			continue
		}
		if !ok {
			return false
		}
		fencedAt := st.fencedAt
		if kind != routePlain {
			fencedAt = l.settle(f, svc, kind, 1, t, want, st)
		}
		// push may have waited on a full ring, and the owner may have
		// recovered a worker meanwhile, re-pointing entries: probe again.
		_, s := l.flows.Probe(f, h)
		l.rememberFlowSeen(f, h, s, t, fencedAt)
		return true
	}
}

// settle books a route that was not plain for n packets accepted onto
// worker t (want is where the owner asked for them, st the flow's
// previous record): the route counters and the fence span. The
// counters advance by what n per-packet dispatches would produce — one
// migration per switch, one fenced count per held packet. Returns the
// span anchor to carry in the flow's new record.
func (l *lane) settle(f packet.FlowKey, svc packet.ServiceID, kind, n, t, want int, st flowState) int64 {
	old := int(st.core)
	switch kind {
	case routeForced:
		l.n[cForced].Add(1)
		fallthrough
	case routeMigrated:
		l.n[cMigrations].Add(1)
		return l.endFence(f, int16(svc), t, old, st.fencedAt)
	}
	l.n[cFenced].Add(uint64(n))
	if st.fencedAt != 0 {
		return st.fencedAt
	}
	// First packet held by this fence: open the span. The anchor rides
	// in the flow table so the hold is measured to the eventual release,
	// however many dispatches later.
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
			Core: int32(old), Core2: int32(want), Flow: f, Val: int64(st.seq)})
	}
	return int64(l.Now())
}

// endFence closes a fence span opened at fencedAt (0 = nothing open):
// it records the hold duration, tracks the maximum for Result, and
// emits the closing span event (svc and target -1 when no packet of the
// flow was there to release it). Returns the new anchor (always 0).
func (l *lane) endFence(f packet.FlowKey, svc int16, target, old int, fencedAt int64) int64 {
	if fencedAt == 0 {
		return 0
	}
	hold := max(0, int64(l.Now())-fencedAt)
	l.tel.fenceHold.Record(l.id, hold)
	noteMax(&l.maxFenceHold, hold)
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvFenceEnd, Service: svc,
			Core: int32(target), Core2: int32(old), Flow: f, Val: hold})
	}
	return 0
}

// rememberFlowSeen updates the flow's routing record through s, the
// slot of the caller's probe for f, which nothing may have mutated the
// table since. A resident flow's record is written in place. A new flow
// that meets a full table sweeps it first: by the bound in newLane at
// most half the entries still have packets in flight, so the sweep
// frees at least half, the insert path stays amortised O(1) and the
// table never holds more than flowCap entries.
func (l *lane) rememberFlowSeen(f packet.FlowKey, h uint16, s flowtab.Slot, target int, fencedAt int64) {
	if !s.Found() && l.flows.Len() >= l.flowCap {
		l.sweep()
		_, s = l.flows.Probe(f, h) // the sweep moved entries
	}
	l.flows.Store(s, f, h, flowState{core: int32(target), seq: l.enqSeq[target], fencedAt: fencedAt})
}

// countDrop records one dropped packet bound for worker w.
func (l *lane) countDrop(p *packet.Packet, w int) {
	l.n[cDropped].Add(1)
	l.perWDrop[w].Add(1)
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
			Core: int32(w), Core2: -1, Flow: p.Flow,
			Val: int64(l.workers[w].rings[l.id].Len() + len(l.staged[w]))})
	}
	l.cfg.Pool.Put(p)
}

// push stages p for worker w, flushing when the stage buffer fills.
// Fullness is decided against a conservative occupancy estimate
// (ring + staged), so flushes never fail — the worker only drains the
// ring between lane steps — and a packet that will be dropped never
// consumes a sequence number.
//
// Returns (accepted, retry). retry means the target worker died before
// or while the lane was waiting on its ring — the caller must
// re-resolve the route; nothing was enqueued or counted.
func (l *lane) push(p *packet.Packet, w int) (bool, bool) {
	wk := l.workers[w]
	if l.health[w] != whAlive || wk.state.Load() == wsDead {
		return false, true
	}
	r := wk.rings[l.id]
	for r.Len()+len(l.staged[w]) >= r.Cap() {
		if l.cfg.Policy == DropWhenFull || l.ctx.Err() != nil {
			l.countDrop(p, w)
			return false, false
		}
		// Backpressure: publish what we have and wait for the drain. The
		// owner keeps watching health here — if w itself is the worker
		// that died, we bail out to retry instead of waiting forever.
		l.flushWorker(w)
		l.owner.ringFull()
		if l.health[w] != whAlive || wk.state.Load() == wsDead {
			return false, true
		}
		// Asks for 5 µs, gets a kernel timer tick — about a millisecond
		// on a stock host — by which time the worker has usually drained
		// the whole ring (docs/PERFORMANCE.md, "Priced and left alone").
		time.Sleep(5 * time.Microsecond)
	}
	l.staged[w] = append(l.staged[w], p)
	l.enqSeq[w]++
	if len(l.staged[w]) >= l.cfg.Batch {
		l.flushWorker(w)
	}
	return true, false
}

// flushWorker publishes worker w's staged packets into its ring. By
// construction (see push) the ring always has room.
func (l *lane) flushWorker(w int) {
	s := l.staged[w]
	if len(s) == 0 {
		return
	}
	if n := l.workers[w].rings[l.id].PushBatch(s); n != len(s) {
		panic(fmt.Sprintf("runtime: lane %d ring to worker %d rejected %d staged packets", l.id, w, len(s)-n))
	}
	l.staged[w] = s[:0]
}

// flushAll publishes every staged packet for live workers, so low-rate
// workers are not starved across arrival gaps. Quarantined workers are
// skipped: a seized one's stage buffer was drained by recovery, a
// wedged one's stays stranded.
func (l *lane) flushAll() {
	for w := range l.staged {
		if l.health[w] == whAlive {
			l.flushWorker(w)
		}
	}
}

// dispatchGroup routes one flow run of a grouped chunk (burstScratch):
// dispatchResolved's decision switch, resolved once and applied to the
// whole run. Only regular runs commit here — target and old worker
// alive, the whole run fits the target ring; anything else re-enters
// the per-packet path, which owns blocking, dropping and recovery.
// Returns the number of packets accepted.
func (l *lane) dispatchGroup(ps []*packet.Packet, g *flowGroup, target int) int {
	first := ps[g.head]
	n := int(g.n)
	if l.health[target] != whAlive || l.workers[target].state.Load() == wsDead {
		return l.dispatchGroupSlow(ps, g, target)
	}
	// One probe serves the whole run: nothing below mutates the fence
	// table before rememberFlowSeen writes the run's record through s.
	kind := routePlain
	st, s := l.flows.Probe(first.Flow, g.hash)
	t := target
	if old := int(st.core); s.Found() && old != target {
		switch {
		case l.cfg.DisableFencing || l.retiredOn(old) >= st.seq:
			kind = routeMigrated
		case l.health[old] != whAlive || l.workers[old].state.Load() == wsDead:
			// Dead-old-worker complications (reap, forced release).
			return l.dispatchGroupSlow(ps, g, target)
		default:
			kind = routeFenced
			t = old
		}
	}
	// Whole-run capacity check against the per-chunk occupancy cache (one
	// Len() per touched worker per chunk). Committing only whole runs
	// keeps the fence seq exact: a partially dropped run would record
	// enqueue sequence numbers for packets that never reached the ring,
	// fencing the flow against retirements that can never happen.
	r := l.workers[t].rings[l.id]
	if l.occ[t] < 0 {
		l.occ[t] = r.Len() + len(l.staged[t])
	}
	if l.occ[t]+n > r.Cap() {
		return l.dispatchGroupSlow(ps, g, target)
	}
	// The whole run fits, so it can be booked before it is staged — and
	// a moved flow must be in the witness before any of it can depart.
	fencedAt := st.fencedAt
	if kind != routePlain {
		if l.budgetable {
			l.tracker.markMoved(first.Flow, g.hash)
		}
		fencedAt = l.settle(first.Flow, first.Service, kind, n, t, target, st)
	}
	stage := l.staged[t]
	for i := g.head; i >= 0; i = l.burst.next[i] {
		stage = append(stage, ps[i])
	}
	l.staged[t] = stage
	l.occ[t] += n
	l.enqSeq[t] += uint64(n)
	l.rememberFlowSeen(first.Flow, g.hash, s, t, fencedAt)
	if len(l.staged[t]) >= l.cfg.Batch {
		l.flushWorker(t)
	}
	return n
}

// dispatchGroupSlow feeds one run through the per-packet machinery. The
// run's scheduler decision and observations already happened, so
// packets re-enter below them. Recovery may have moved packets between
// rings, so the occupancy cache is invalidated.
func (l *lane) dispatchGroupSlow(ps []*packet.Packet, g *flowGroup, target int) int {
	accepted := 0
	for i := g.head; i >= 0; i = l.burst.next[i] {
		if l.dispatchResolved(ps[i], target) {
			accepted++
		}
	}
	l.resetOcc()
	return accepted
}

func (l *lane) resetOcc() {
	for i := range l.occ {
		l.occ[i] = -1
	}
}

// drain is this lane's share of recovering quarantined worker w: take
// over its ring (when it could be seized), re-inject the stranded
// backlog — ring oldest first, then the stage buffer — onto live
// workers in arrival order, and sweep the fence table.
//
// Ordering argument: a flow resident on w has ALL of its unretired
// packets from this lane inside that backlog (the fence keeps a flow's
// in-flight packets on exactly one worker), in enqueue order.
// Re-injecting them in that order onto one live worker — and
// re-pointing the fence at it — preserves per-flow order by
// construction; packets retired before the fault had already departed
// in order.
//
// A wedged worker (seizure failed, it still holds popped packets) is
// left alone: nothing is drained, its backlog is stranded, and fences
// against it are force-released on the flows' next packets.
func (l *lane) drain(w int) {
	r := l.workers[w].rings[l.id]
	t0 := l.Now()
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvRecoveryStart, Service: -1, Core: int32(w),
			Core2: int32(l.id), Val: int64(r.Len() + len(l.staged[w]))})
	}
	var reinjected uint64
	touched := make(map[packet.FlowKey]struct{})
	if l.health[w] == whSeized {
		buf := make([]*packet.Packet, l.cfg.Batch)
		for n := r.PopBatch(buf); n > 0; n = r.PopBatch(buf) {
			for j := 0; j < n; j++ {
				if l.reinject(buf[j], touched) {
					reinjected++
				}
				buf[j] = nil
			}
		}
		for _, p := range l.staged[w] {
			if l.reinject(p, touched) {
				reinjected++
			}
		}
		l.staged[w] = l.staged[w][:0]
		// Every still-in-flight entry on w was just re-pointed by
		// reinject; what remains there is fully retired, and the sweep
		// forgets it with every other drained entry.
		l.sweep()
	}
	l.n[cReinjected].Add(reinjected)
	l.n[cRecovered].Add(uint64(len(touched)))
	// Recovery is a span: it runs dozens of ring pops and re-pushes, so
	// its duration — not just its occurrence — is what capacity planning
	// needs. EvRecovery is the instant older trace consumers know.
	dur := int64(l.Now() - t0)
	l.tel.recovery.Record(l.id, dur)
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvRecovery, Service: -1, Core: int32(w),
			Core2: -1, Val: int64(reinjected)})
		l.rec.Emit(obs.Event{Kind: obs.EvRecoveryEnd, Service: -1, Core: int32(w),
			Core2: int32(l.id), Val: dur})
	}
}

// reinject pushes one stranded packet onto a live worker, bypassing the
// fence (see drain for why that is ordering-safe), and re-points the
// flow's routing record so subsequent packets fence against the new
// home; a fence the flow was held by ends there. A flow this drain
// already re-injected follows its record, so its backlog lands behind
// its first re-injected packet; when that home died undetected it is
// recovered first, which re-points the record. Reports whether the
// packet was accepted.
func (l *lane) reinject(p *packet.Packet, touched map[packet.FlowKey]struct{}) bool {
	h := crc.PacketHash(p)
	f, svc := p.Flow, int16(p.Service) // push publishes p; no reads after it
	if l.budgetable {
		l.tracker.markMoved(f, h)
	}
	_, again := touched[f]
	for {
		t := l.reroute(h)
		if st, seen := l.flows.Get(f, h); again && seen && l.health[st.core] == whAlive {
			t = int(st.core)
		}
		if t < 0 {
			l.n[cDropped].Add(1)
			l.cfg.Pool.Put(p)
			return false
		}
		if l.workers[t].state.Load() == wsDead {
			l.owner.reresolve(p, t, t) // the home died undetected
			continue
		}
		ok, retry := l.push(p, t)
		if retry {
			continue
		}
		if !ok {
			return false
		}
		st, s := l.flows.Probe(f, h)
		l.endFence(f, svc, t, int(st.core), st.fencedAt)
		l.rememberFlowSeen(f, h, s, t, 0)
		touched[f] = struct{}{}
		return true
	}
}

// reroute deterministically picks a live worker for a flow by its
// cached hash, skipping workers whose goroutines have died but are not
// yet quarantined. Returns -1 when no live worker is reachable.
func (l *lane) reroute(h uint16) int {
	n := len(l.live)
	for i := 0; i < n; i++ {
		if c := l.live[(int(h)+i)%n]; l.workers[c].state.Load() != wsDead {
			return c
		}
	}
	return -1
}
