package runtime

import (
	"time"

	"laps/internal/crc"
	"laps/internal/obs"
	"laps/internal/packet"
)

// The burst path: dispatch a slice of packets through the same
// scheduler, fence and recovery machinery as the per-packet path, but
// pay the per-packet costs once per within-burst flow run. This file
// holds the grouping and the engines' burst entry points; the run
// routing itself is lane.dispatchGroup.
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
// regular, and the whole run fits the target ring. Anything irregular —
// dead or dying workers, rings at capacity, fences against quarantined
// workers — re-enters the per-packet path for that run, so blocking,
// dropping and recovery semantics are byte-for-byte those of Dispatch.

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
// package comment above for the ordering argument). Each run is
// resolved once (Engine.decide) — against the engine's forwarding view,
// or by the scheduler on a sampled run or when it publishes no view —
// and the whole run follows that decision. Staged packets
// are published with one ring reservation per (worker, burst). Returns
// the number of packets accepted (the rest were dropped per policy).
// Same contract as Dispatch otherwise: single goroutine, packets are
// owned by the engine once accepted.
func (e *Engine) DispatchBurst(ps []*packet.Packet) int {
	accepted := 0
	for len(ps) > 0 {
		chunk := ps[:min(len(ps), burstChunk)]
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
	now := e.Now()
	e.chunk.now = now
	if e.tel.on {
		for _, p := range ps {
			p.Enqueued = now
		}
	}
	e.resetOcc()
	groups := e.burst.group(ps)
	accepted := 0
	for gi := range groups {
		g := &groups[gi]
		accepted += e.dispatchGroup(ps, g, e.decide(ps[g.head], int(g.n), &e.chunk))
	}
	e.burst.reset()
	e.Flush()
	return accepted
}

// IngestBurst offers a burst of packets to the data plane in one call:
// packets are partitioned per shard by their (primed here if need be)
// flow hash — flow affinity, so per-flow arrival order is preserved —
// and each shard's share lands on its ingress ring with one PushBatch
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
		sh := int(crc.PacketHash(p)) % len(e.shards)
		e.ingScratch[sh] = append(e.ingScratch[sh], p)
	}
	for si, stage := range e.ingScratch {
		if len(stage) == 0 {
			continue
		}
		accepted += e.ingestShard(e.shards[si], stage)
		clear(stage)
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
