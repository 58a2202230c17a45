// Package runtime is the live execution engine: it runs a packet
// scheduler (core.LAPS or any npsim.Scheduler) against real goroutine
// "cores" instead of the discrete-event simulator. One worker goroutine
// per core consumes a bounded single-producer/single-consumer ring;
// a single dispatcher goroutine makes scheduling decisions and routes
// packets, so the control plane stays sequential (and deterministic in
// its inputs) while the data plane is genuinely concurrent.
//
// Reordering in this engine arises from real queueing races — two
// workers draining different rings at different speeds — which is the
// failure mode the paper's migrate-only-aggressive-flows policy is
// designed to minimise. Migration fencing (see Engine) removes even
// that residual reordering by draining a flow's in-flight packets on
// its old core before the new target takes effect.
//
// See docs/RUNTIME.md for the architecture.
package runtime

import (
	"sync/atomic"

	"laps/internal/packet"
)

// cacheLinePad separates hot atomics so the producer and consumer
// indices never share a cache line (false sharing would serialise the
// two sides of every ring).
type cacheLinePad [64]byte

// Ring is a bounded single-producer/single-consumer queue of packet
// descriptors. Exactly one goroutine may push and exactly one may pop;
// under that contract every operation is lock-free and wait-free.
//
// The layout is the classic Lamport ring with cached peer indices: the
// producer re-reads the consumer's position only when the ring looks
// full, and the consumer re-reads the producer's position only when it
// looks empty, so steady-state batches touch each shared cache line
// once per batch rather than once per packet.
type Ring struct {
	mask uint64
	buf  []*packet.Packet

	_    cacheLinePad
	head atomic.Uint64 // next slot to pop; written by the consumer only
	_    cacheLinePad
	tail atomic.Uint64 // next slot to push; written by the producer only
	_    cacheLinePad

	// producer-local state
	headCache uint64 // last observed head
	_         cacheLinePad

	// consumer-local state
	tailCache uint64 // last observed tail
	_         cacheLinePad

	closed atomic.Bool
}

// NewRing builds a ring holding at least capacity packets. Capacity is
// rounded up to a power of two (minimum 2).
func NewRing(capacity int) *Ring {
	c := uint64(2)
	for c < uint64(capacity) {
		c <<= 1
	}
	return &Ring{mask: c - 1, buf: make([]*packet.Packet, c)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the current occupancy. It is exact when called from the
// producer (dispatcher push/flush paths) or the consumer (worker drain
// check), because each owns one of the two indices. Any third goroutine
// — the metrics sampler, the scheduler's QueueLen view — gets a
// conservative racy snapshot that is always in [0, Cap]: head is loaded
// BEFORE tail, so a concurrent consumer can only make the result larger
// and a concurrent producer can only add packets that were really
// pushed. Loading tail first would allow head(t1) > tail(t0) and an
// underflowed garbage length. An observer descheduled between the two
// loads pairs a stale head with a tail many laps on, hence the clamp.
func (r *Ring) Len() int {
	h := r.head.Load()
	t := r.tail.Load()
	if t-h > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(t - h)
}

// PushBatch appends packets from ps until the ring fills, returning how
// many were accepted. One atomic store publishes the whole batch.
// Producer-side only.
func (r *Ring) PushBatch(ps []*packet.Packet) int {
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.headCache)
	if free < uint64(len(ps)) {
		r.headCache = r.head.Load()
		free = uint64(len(r.buf)) - (t - r.headCache)
	}
	n := len(ps)
	if uint64(n) > free {
		n = int(free)
	}
	for i := 0; i < n; i++ {
		r.buf[(t+uint64(i))&r.mask] = ps[i]
	}
	if n > 0 {
		r.tail.Store(t + uint64(n))
	}
	return n
}

// PopBatch fills out with up to len(out) packets, returning how many
// were taken. One atomic store releases the whole batch of slots back
// to the producer. Consumer-side only.
func (r *Ring) PopBatch(out []*packet.Packet) int {
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
		idx := (h + uint64(i)) & r.mask
		out[i] = r.buf[idx]
		r.buf[idx] = nil
	}
	r.head.Store(h + uint64(n))
	return n
}

// Close marks the ring as finished. The producer calls it after its
// last PushBatch; the consumer drains remaining packets and then observes
// Closed.
func (r *Ring) Close() { r.closed.Store(true) }

// Closed reports whether the producer has closed the ring. The consumer
// must keep draining until the ring is also empty.
func (r *Ring) Closed() bool { return r.closed.Load() }
