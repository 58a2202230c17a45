package runtime

import (
	"sync/atomic"

	"laps/internal/packet"
)

// obsRec is one flow observation flowing shard → control plane: what a
// scheduler reads of a packet — flow, cached hash, service, size — plus
// how many back-to-back packets of that flow it stands for. The burst
// path aggregates a whole flow run into one record, so the control
// plane pays one scheduler consultation per run instead of per packet
// while the AFD still counts every reference (Detector.ObserveBatchH).
// 28 bytes, against 96 for a descriptor copy and its run length: the
// record is written into the ring and copied out again for every run.
type obsRec struct {
	flow packet.FlowKey
	hash uint16
	svc  packet.ServiceID
	size uint32
	n    uint32
}

// fill rebuilds the scheduler-visible fields of a descriptor from the
// record; every other field of p is left as it was (zero, on the
// control plane's scratch descriptor).
func (r *obsRec) fill(p *packet.Packet) {
	p.Flow = r.flow
	p.Hash, p.HashOK = r.hash, true
	p.Service = r.svc
	p.Size = int(r.size)
}

// feedRing is a bounded SPSC ring of observation records, replacing the
// per-shard feedback channels: same never-blocking contract (a full
// ring costs observations, not latency), but with batched publication —
// the shard stages records locally and makes them visible with one
// atomic store per burst instead of a channel send per packet.
//
// Producer is the shard goroutine, consumer the control plane. The
// index discipline is the same Lamport layout as Ring.
type feedRing struct {
	mask uint64
	buf  []obsRec

	_    cacheLinePad
	head atomic.Uint64 // next slot to pop; consumer-owned
	_    cacheLinePad
	tail atomic.Uint64 // first unpublished slot; producer-owned
	_    cacheLinePad

	// producer-local state
	headCache uint64
	local     uint64 // staged-but-unpublished tail (>= tail)
	_         cacheLinePad

	// consumer-local state
	tailCache uint64
	_         cacheLinePad
}

func newFeedRing(capacity int) *feedRing {
	c := uint64(2)
	for c < uint64(capacity) {
		c <<= 1
	}
	return &feedRing{mask: c - 1, buf: make([]obsRec, c)}
}

// tryPush stages one record without publishing it. Returns false when
// the ring is full (the caller counts the record dropped). Producer
// only; call publish to make staged records visible.
func (r *feedRing) tryPush(rec obsRec) bool {
	if r.local-r.headCache == uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if r.local-r.headCache == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[r.local&r.mask] = rec
	r.local++
	return true
}

// publish makes every staged record visible to the consumer with one
// atomic store. Producer only.
func (r *feedRing) publish() {
	if r.local != r.tail.Load() {
		r.tail.Store(r.local)
	}
}

// popBatch fills out with up to len(out) records, releasing the slots
// with one atomic store. Consumer only.
func (r *feedRing) popBatch(out []obsRec) int {
	h := r.head.Load()
	avail := r.tailCache - h
	if avail == 0 {
		r.tailCache = r.tail.Load()
		avail = r.tailCache - h
		if avail == 0 {
			return 0
		}
	}
	n := len(out)
	if uint64(n) > avail {
		n = int(avail)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(h+uint64(i))&r.mask]
	}
	r.head.Store(h + uint64(n))
	return n
}
