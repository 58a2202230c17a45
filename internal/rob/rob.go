// Package rob implements egress order *restoration*: a bounded re-order
// buffer that resequences packets per flow after processing, the
// alternative design the paper contrasts with LAPS's order preservation
// (related work [35], Shi et al.: "they allow the packets to be
// processed out of order on different cores, but … they are reordered to
// restore the flow order. Yet, this scheme can have considerable storage
// overheads").
//
// The buffer tracks, per flow, the next expected sequence number.
// In-order packets pass straight through; early packets are held until
// the gap fills, a timeout expires (covering drops), or capacity
// pressure forces release. The experiment harness uses it to measure
// exactly the storage/latency overhead the paper argues against.
package rob

import (
	"container/heap"

	"laps/internal/packet"
	"laps/internal/sim"
)

// keyLess orders flow keys canonically, for deterministic tie-breaks.
func keyLess(a, b packet.FlowKey) bool {
	ba, bb := a.Bytes(), b.Bytes()
	for i := range ba {
		if ba[i] != bb[i] {
			return ba[i] < bb[i]
		}
	}
	return false
}

// Config parameterises a Buffer.
type Config struct {
	// Capacity bounds the total packets held across all flows;
	// 0 means 1024.
	Capacity int
	// Timeout releases a held packet this long after buffering even if
	// its gap never fills (the predecessor was dropped); 0 means 50 µs.
	Timeout sim.Time
}

// Stats counts buffer activity.
type Stats struct {
	Pushed       uint64 // packets offered
	Passed       uint64 // delivered immediately in order
	Held         uint64 // packets that had to wait
	Repaired     uint64 // held packets later released in order
	TimedOut     uint64 // releases forced by timeout (gap = drop)
	Evicted      uint64 // releases forced by capacity pressure
	MaxOccupancy int    // high-water mark of held packets
	HeldTime     sim.Time
}

// flowState is one flow's resequencing state.
type flowState struct {
	next uint64 // next expected FlowSeq
	held seqHeap
}

type heldPkt struct {
	p     *packet.Packet
	since sim.Time
}

// seqHeap orders held packets by FlowSeq.
type seqHeap []heldPkt

func (h seqHeap) Len() int            { return len(h) }
func (h seqHeap) Less(i, j int) bool  { return h[i].p.FlowSeq < h[j].p.FlowSeq }
func (h seqHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x interface{}) { *h = append(*h, x.(heldPkt)) }
func (h *seqHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = heldPkt{}
	*h = old[:n-1]
	return x
}

// Buffer is the egress re-order buffer.
type Buffer struct {
	eng   *sim.Engine
	cfg   Config
	out   func(*packet.Packet)
	flows map[packet.FlowKey]*flowState
	occ   int
	stats Stats
}

// New builds a Buffer delivering in-order packets to out.
func New(eng *sim.Engine, cfg Config, out func(*packet.Packet)) *Buffer {
	if cfg.Capacity == 0 {
		cfg.Capacity = 1024
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 50 * sim.Microsecond
	}
	return &Buffer{
		eng:   eng,
		cfg:   cfg,
		out:   out,
		flows: make(map[packet.FlowKey]*flowState, 1<<12),
	}
}

// Stats returns a snapshot of the counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Push offers one processed packet for in-order delivery.
func (b *Buffer) Push(p *packet.Packet) {
	b.stats.Pushed++
	st := b.flows[p.Flow]
	if st == nil {
		st = &flowState{}
		b.flows[p.Flow] = st
	}
	switch {
	case p.FlowSeq == st.next:
		b.stats.Passed++
		st.next++
		b.out(p)
		b.drain(st)
	case p.FlowSeq < st.next:
		// Late duplicate or a packet the timeout already skipped past:
		// deliver immediately (it is out of order by construction).
		b.stats.Passed++
		b.out(p)
	default:
		// Early: hold until the gap fills.
		b.hold(st, p)
	}
}

// hold buffers an early packet, enforcing capacity and arming a timeout.
func (b *Buffer) hold(st *flowState, p *packet.Packet) {
	if b.occ >= b.cfg.Capacity {
		b.evictOne()
	}
	heap.Push(&st.held, heldPkt{p: p, since: b.eng.Now()})
	b.occ++
	b.stats.Held++
	if b.occ > b.stats.MaxOccupancy {
		b.stats.MaxOccupancy = b.occ
	}
	flow := p.Flow
	seq := p.FlowSeq
	b.eng.After(b.cfg.Timeout, func() { b.timeout(flow, seq) })
}

// drain releases consecutively-sequenced held packets of one flow.
func (b *Buffer) drain(st *flowState) {
	for len(st.held) > 0 {
		top := st.held[0]
		if top.p.FlowSeq > st.next {
			break
		}
		heap.Pop(&st.held)
		b.occ--
		b.stats.HeldTime += b.eng.Now() - top.since
		if top.p.FlowSeq == st.next {
			st.next++
			b.stats.Repaired++
		}
		b.out(top.p)
	}
}

// timeout force-advances a flow past a gap that never filled.
func (b *Buffer) timeout(flow packet.FlowKey, seq uint64) {
	st := b.flows[flow]
	if st == nil || len(st.held) == 0 {
		return
	}
	// If the packet with this seq is still held and the flow is stuck
	// before it, skip the gap: advance next to the lowest held seq.
	lowest := st.held[0].p.FlowSeq
	if seq < st.next || lowest > seq {
		return // already released
	}
	if st.next < lowest {
		st.next = lowest
		b.stats.TimedOut++
	}
	b.drain(st)
}

// evictOne relieves capacity pressure by force-releasing the flow state
// with the oldest held packet (approximated by scanning; capacity events
// should be rare in a well-sized buffer). Ties break on the flow key so
// the choice never depends on map iteration order.
func (b *Buffer) evictOne() {
	var victim *flowState
	var victimKey packet.FlowKey
	oldest := sim.Time(1<<62 - 1)
	for f, st := range b.flows {
		if len(st.held) == 0 {
			continue
		}
		since := st.held[0].since
		if since < oldest || (since == oldest && victim != nil && keyLess(f, victimKey)) {
			oldest = since
			victim = st
			victimKey = f
		}
	}
	if victim == nil {
		return
	}
	victim.next = victim.held[0].p.FlowSeq
	b.stats.Evicted++
	b.drain(victim)
}

// Flush releases everything still held (end of simulation), in per-flow
// sequence order, skipping over any remaining gaps.
func (b *Buffer) Flush() {
	for _, st := range b.flows {
		for len(st.held) > 0 {
			st.next = st.held[0].p.FlowSeq
			b.drain(st)
		}
	}
}
