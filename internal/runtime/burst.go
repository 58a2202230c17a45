package runtime

import (
	"fmt"
	"time"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
)

// The burst path: dispatch a slice of packets through the same
// scheduler, fence and recovery machinery as the per-packet path, but
// pay the per-packet costs once per within-burst flow run.
//
// Grouping is by flow, not by destination worker: a run of one flow's
// packets has a single routing decision, a single flow-table probe and
// update, and a single batched AFD observation, and it is staged onto
// one ring in arrival order — which is exactly the per-flow ordering
// contract. Packets of *different* flows may leave the dispatcher in a
// different interleaving than per-packet dispatch would produce, but no
// ordering contract observes inter-flow order (the reorder trackers are
// per flow), so the reordering the paper worries about cannot happen
// here.
//
// The fast path only commits a run wholesale: target alive, fence state
// regular, and the whole run fits the target ring (checked against a
// per-burst occupancy cache, one Len() per touched worker per burst).
// Anything irregular — dead or dying workers, rings at capacity, fences
// against quarantined workers — re-enters the per-packet path for that
// run, so blocking, dropping and recovery semantics are byte-for-byte
// those of Dispatch.

// burstChunk bounds how many packets one grouping pass handles; longer
// bursts are processed in chunks so the scratch state stays small and
// cache-resident. 256 covers the largest ingress datagram (MaxRecords).
const burstChunk = 256

// flowGroup is one flow's run within a chunk: a linked list (through
// burstScratch.next) of packet indices in arrival order.
type flowGroup struct {
	head, tail int32
	n          int32
	slot       int32
	hash       uint16
}

// burstScratch is the reusable grouping state: an open-addressed slot
// table keyed by the CRC16 flow hash resolving to groups, and a next[]
// chain threading each group's packet indices. Zero allocations after
// construction.
type burstScratch struct {
	slots  []int32 // slot -> group index+1; 0 = empty
	next   []int32 // packet index -> next packet of the same flow, -1 = end
	groups []flowGroup
}

func newBurstScratch() *burstScratch {
	return &burstScratch{
		slots:  make([]int32, 2*burstChunk),
		next:   make([]int32, burstChunk),
		groups: make([]flowGroup, 0, burstChunk),
	}
}

// group partitions ps (len <= burstChunk) into flow runs in
// first-occurrence order. Unprimed packets are hashed here, inside the
// single pass that needs the value — a separate priming sweep would
// touch every cold packet pointer twice per burst.
func (b *burstScratch) group(ps []*packet.Packet) []flowGroup {
	mask := uint32(len(b.slots) - 1)
	for i, p := range ps {
		h := crc.PacketHash(p)
		idx := uint32(h) & mask
		for {
			gi := b.slots[idx]
			if gi == 0 {
				b.slots[idx] = int32(len(b.groups) + 1)
				b.next[i] = -1
				b.groups = append(b.groups, flowGroup{
					head: int32(i), tail: int32(i), n: 1, slot: int32(idx), hash: h,
				})
				break
			}
			g := &b.groups[gi-1]
			if g.hash == h && ps[g.head].Flow == p.Flow {
				b.next[g.tail] = int32(i)
				b.next[i] = -1
				g.tail = int32(i)
				g.n++
				break
			}
			idx = (idx + 1) & mask
		}
	}
	return b.groups
}

// reset clears the slot table (touching only used slots) for the next
// chunk.
func (b *burstScratch) reset() {
	for i := range b.groups {
		b.slots[b.groups[i].slot] = 0
	}
	b.groups = b.groups[:0]
}

// DispatchBurst routes a burst of packets, amortising scheduler, flow
// table, AFD and ring costs over each within-burst flow run (see the
// package comment above for the ordering argument). The scheduler is
// consulted once per run — a npsim.BurstScheduler observes all n
// references in one batched update; a plain Scheduler sees the run's
// first packet and the whole run follows its decision. Staged packets
// are published with one ring reservation per (worker, burst). Returns
// the number of packets accepted (the rest were dropped per policy).
// Same contract as Dispatch otherwise: single goroutine, packets are
// owned by the engine once accepted.
func (e *Engine) DispatchBurst(ps []*packet.Packet) int {
	accepted := 0
	for len(ps) > 0 {
		chunk := ps
		if len(chunk) > burstChunk {
			chunk = ps[:burstChunk]
		}
		ps = ps[len(chunk):]
		accepted += e.dispatchChunk(chunk)
	}
	return accepted
}

func (e *Engine) dispatchChunk(ps []*packet.Packet) int {
	e.dispatched.Add(uint64(len(ps)))
	e.maybeCheckHealth()
	// The chunk's one clock read: the telemetry stamp and every
	// scheduler decision below share it.
	v := &e.chunk
	v.now = e.Now()
	if e.tel.on {
		for _, p := range ps {
			p.Enqueued = v.now
		}
	}
	for i := range e.occ {
		e.occ[i] = -1
	}
	groups := e.burst.group(ps)
	bs, burstSched := e.cfg.Sched.(npsim.BurstScheduler)
	accepted := 0
	for gi := range groups {
		g := &groups[gi]
		first := ps[g.head]
		var t int
		if burstSched {
			t = bs.TargetN(first, int(g.n), v)
		} else {
			t = e.cfg.Sched.Target(first, v)
		}
		if t < 0 || t >= len(e.workers) {
			panic(fmt.Sprintf("runtime: scheduler %q returned invalid worker %d", e.cfg.Sched.Name(), t))
		}
		accepted += e.dispatchGroup(ps, g, t)
	}
	e.burst.reset()
	e.Flush()
	return accepted
}

// dispatchGroup routes one flow run. The fast path mirrors the decision
// switch of dispatchResolved exactly, but resolves it once and applies
// it to the whole run; the counters advance by the same amounts n
// per-packet dispatches would produce (one migration per switch, one
// fenced count per held packet).
func (e *Engine) dispatchGroup(ps []*packet.Packet, g *flowGroup, target int) int {
	first := ps[g.head]
	n := int(g.n)
	wk := e.workers[target]
	if e.dead[target] || wk.state.Load() == wsDead {
		return e.dispatchGroupSlow(ps, g, target)
	}
	h := g.hash
	kind := routePlain
	st, seen, coarse := e.fenceLookup(first.Flow, h)
	fencedAt, fenceSeq := int64(0), uint64(0)
	t := target
	old := -1
	if seen {
		fencedAt = st.fencedAt
		fenceSeq = st.seq
		if int(st.core) != target {
			old = int(st.core)
			switch {
			case e.cfg.DisableFencing || e.workers[old].processed.Load() >= st.seq:
				kind = routeMigrated
			case (!e.dead[old] && e.workers[old].state.Load() == wsDead) || e.dead[old]:
				// Dead-old-worker complications (reap, forced release):
				// the per-packet path owns that machinery.
				return e.dispatchGroupSlow(ps, g, target)
			default:
				kind = routeFenced
				t = old
				wk = e.workers[t]
				if e.dead[t] || wk.state.Load() == wsDead {
					return e.dispatchGroupSlow(ps, g, target)
				}
			}
		}
	}
	// Whole-run capacity check against the per-burst occupancy cache.
	// Committing only whole runs keeps the fence seq exact: a partially
	// dropped run would record enqueue sequence numbers for packets that
	// never reached the ring, fencing the flow against retirements that
	// can never happen.
	if e.occ[t] < 0 {
		e.occ[t] = wk.rings[0].Len() + len(e.staged[t])
	}
	if e.occ[t]+n > wk.rings[0].Cap() {
		return e.dispatchGroupSlow(ps, g, target)
	}
	f := first.Flow
	svc := first.Service
	stage := e.staged[t]
	for i := g.head; i >= 0; i = e.burst.next[i] {
		stage = append(stage, ps[i])
	}
	e.staged[t] = stage
	e.occ[t] += n
	e.enqSeq[t] += uint64(n)
	switch kind {
	case routeMigrated:
		e.migrations.Add(1)
		fencedAt = e.endFence(f, svc, t, old, fencedAt)
	case routeFenced:
		e.fenced.Add(uint64(n))
		if fencedAt == 0 {
			fencedAt = int64(e.Now())
			if e.rec != nil {
				e.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
					Core: int32(old), Core2: int32(target), Flow: f, Val: int64(fenceSeq)})
			}
		}
	}
	if coarse {
		e.coarse.put(h, int32(t), e.enqSeq[t], fencedAt)
	} else {
		e.rememberFlowSeen(f, h, t, fencedAt, seen)
	}
	if len(e.staged[t]) >= e.cfg.Batch {
		e.flushWorker(t)
	}
	return n
}

// dispatchGroupSlow feeds one run through the per-packet machinery
// (reaping, rerouting, blocking, dropping — everything dispatchResolved
// does). The run's scheduler decision and AFD observations already
// happened, so packets re-enter below Target. Recovery may have moved
// packets between rings, so the occupancy cache is invalidated.
func (e *Engine) dispatchGroupSlow(ps []*packet.Packet, g *flowGroup, target int) int {
	accepted := 0
	for i := g.head; i >= 0; i = e.burst.next[i] {
		if e.dispatchResolved(ps[i], target) {
			accepted++
		}
	}
	for i := range e.occ {
		e.occ[i] = -1
	}
	return accepted
}

// --- sharded engine burst path ---

// IngestBurst offers a burst of packets to the data plane in one call:
// hashes are primed in one table pass, packets are partitioned per
// shard (flow affinity, so per-flow arrival order is preserved), and
// each shard's share lands on its ingress ring with one PushBatch
// reservation per (shard, burst). Same contract as Ingest otherwise —
// single ingress goroutine, DropWhenFull/cancellation drop at ingress.
// Returns the number of packets accepted.
func (e *Sharded) IngestBurst(ps []*packet.Packet) int {
	if len(ps) == 0 {
		return 0
	}
	e.dispatched.Add(uint64(len(ps)))
	if e.tel.on {
		now := e.Now()
		for _, p := range ps {
			p.Enqueued = now
		}
	}
	if len(e.shards) == 1 {
		return e.ingestShard(e.shards[0], ps)
	}
	accepted := 0
	for _, p := range ps {
		sh := int(p.Hash) % len(e.shards)
		e.ingScratch[sh] = append(e.ingScratch[sh], p)
	}
	for si := range e.ingScratch {
		stage := e.ingScratch[si]
		if len(stage) == 0 {
			continue
		}
		accepted += e.ingestShard(e.shards[si], stage)
		for i := range stage {
			stage[i] = nil
		}
		e.ingScratch[si] = stage[:0]
	}
	return accepted
}

// ingestShard pushes one shard's share of a burst onto its ingress
// ring, retrying partial batches under BlockWhenFull and dropping the
// remainder under DropWhenFull (or after cancellation), mirroring
// Ingest's per-packet policy. The dropped remainder goes back to the
// pool in one PutBatch, which also clears those slots of ps.
func (e *Sharded) ingestShard(sh *shard, ps []*packet.Packet) int {
	accepted := 0
	for len(ps) > 0 {
		n := sh.in.PushBatch(ps)
		accepted += n
		ps = ps[n:]
		if len(ps) == 0 {
			break
		}
		if e.cfg.Policy == DropWhenFull || e.ctx.Err() != nil {
			e.ingressDrops.Add(uint64(len(ps)))
			if e.ingRec != nil {
				for _, p := range ps {
					e.ingRec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
						Core: -1, Core2: -1, Flow: p.Flow, Val: int64(sh.in.Len())})
				}
			}
			e.cfg.Pool.PutBatch(ps)
			break
		}
		time.Sleep(5 * time.Microsecond)
	}
	return accepted
}

// dispatchBurst resolves one popped ingress batch as flow runs: one
// view for the whole burst, one Forward/flow-table/fence update and one
// aggregated control-plane observation per run, one ring publication
// per (worker, burst). Irregular runs fall back to the per-packet
// resolution loop (dispatchResolved), which may sync the view and
// trigger recovery mid-burst — later runs then resolve against the
// fresher world, exactly as consecutive per-packet dispatches would.
func (s *shard) dispatchBurst(ps []*packet.Packet) {
	for len(ps) > 0 {
		chunk := ps
		if len(chunk) > burstChunk {
			chunk = ps[:burstChunk]
		}
		ps = ps[len(chunk):]
		s.dispatchChunk(chunk)
	}
}

func (s *shard) dispatchChunk(ps []*packet.Packet) {
	for i := range s.occ {
		s.occ[i] = -1
	}
	groups := s.burst.group(ps)
	for gi := range groups {
		s.dispatchGroup(ps, &groups[gi])
	}
	s.burst.reset()
	s.publishObs()
}

// dispatchGroup routes one flow run, mirroring dispatchResolved's
// decision switch once for the whole run. Counter deltas match what n
// per-packet dispatches would record.
func (s *shard) dispatchGroup(ps []*packet.Packet, g *flowGroup) {
	first := ps[g.head]
	n := int(g.n)
	s.observeN(first, g.hash, n)
	v := s.lastView
	t := v.fwd.Forward(first)
	if t < 0 || t >= len(s.e.workers) {
		panic(fmt.Sprintf("runtime: snapshot of %q forwarded to invalid worker %d", s.e.cfg.Sched.Name(), t))
	}
	if v.health[t] != whAlive || s.e.workers[t].state.Load() == wsDead {
		s.dispatchGroupSlow(ps, g)
		return
	}
	h := g.hash
	kind := routePlain
	st, seen, coarse := s.fenceLookup(first.Flow, h)
	fencedAt, fenceSeq := int64(0), uint64(0)
	old, want := -1, t
	if seen {
		fencedAt = st.fencedAt
		fenceSeq = st.seq
		if int(st.core) != t {
			old = int(st.core)
			switch {
			case s.e.cfg.DisableFencing || s.retiredOn(old) >= st.seq:
				kind = routeMigrated
			case v.health[old] == whAlive && s.e.workers[old].state.Load() == wsDead:
				// Fenced to a worker that died undetected: the per-packet
				// loop waits out the control plane's republish.
				s.dispatchGroupSlow(ps, g)
				return
			case v.health[old] != whAlive:
				kind = routeForced
			default:
				kind = routeFenced
				t = old
				if s.e.workers[t].state.Load() == wsDead {
					s.dispatchGroupSlow(ps, g)
					return
				}
			}
		}
	}
	// Whole-run capacity check against the per-burst occupancy cache
	// (see Engine.dispatchGroup for why partial runs never commit).
	wk := s.e.workers[t]
	r := wk.rings[s.id]
	if s.occ[t] < 0 {
		s.occ[t] = r.Len() + len(s.staged[t])
	}
	if s.occ[t]+n > r.Cap() {
		s.dispatchGroupSlow(ps, g)
		return
	}
	f := first.Flow
	svc := first.Service
	stage := s.staged[t]
	for i := g.head; i >= 0; i = s.burst.next[i] {
		stage = append(stage, ps[i])
	}
	s.staged[t] = stage
	s.occ[t] += n
	s.enqSeq[t] += uint64(n)
	switch kind {
	case routeMigrated:
		s.migrations.Add(1)
		fencedAt = s.endFence(f, svc, t, old, fencedAt)
	case routeForced:
		s.forced.Add(1)
		s.migrations.Add(1)
		fencedAt = s.endFence(f, svc, t, old, fencedAt)
	case routeFenced:
		s.fenced.Add(uint64(n))
		if fencedAt == 0 {
			fencedAt = int64(s.e.Now())
			if s.rec != nil {
				s.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
					Core: int32(old), Core2: int32(want), Flow: f, Val: int64(fenceSeq)})
			}
		}
	}
	if coarse {
		s.coarse.put(h, int32(t), s.enqSeq[t], fencedAt)
	} else {
		s.rememberFlowSeen(f, h, t, fencedAt, seen)
	}
	if len(s.staged[t]) >= s.e.cfg.Batch {
		s.flushWorker(t)
	}
}

// dispatchGroupSlow feeds one run through the per-packet resolution
// loop; its observation was already recorded by dispatchGroup. The
// loop can recover workers and move packets between rings, so the
// occupancy cache is invalidated afterwards.
func (s *shard) dispatchGroupSlow(ps []*packet.Packet, g *flowGroup) {
	for i := g.head; i >= 0; i = s.burst.next[i] {
		s.dispatchResolved(ps[i])
	}
	for i := range s.occ {
		s.occ[i] = -1
	}
}
