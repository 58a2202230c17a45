package runtime

import (
	"sync/atomic"

	"laps/internal/packet"
)

// obsRec is one flow observation flowing shard → control plane: what a
// scheduler reads of a packet — flow, cached hash, service, size — plus
// the number of packets it stands for, which is the lane's feedSampler
// weight and not the run's own length: the control plane is shown a
// sample of the shard's stream, each record weighted so that the AFD
// and the scheduler still count every arrival (Detector.ObserveBatchH,
// TargetN). 28 bytes, against 96 for a descriptor copy and its weight.
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

// feedbackStride is the training sampling rate: a lane shows its
// scheduler one weighted observation per this many packets. The paper
// trains its detector off the critical path and on a sample (Fig 8c:
// sampling filters mice out of the AFC); 1-in-8 took the control plane
// from 30 % of sharded_churn's CPU to under 10 %, and 1-in-64 bought
// nothing more (docs/PERFORMANCE.md). One value in use, so a constant.
const feedbackStride = 8

// feedSampler picks which flow runs of a lane train the scheduler, and
// with what weight: the runs a shard reports to the control plane, the
// runs Engine shows its inline scheduler. Each lane has one, seeded
// from its id. It walks the lane's packet stream in strata of
// feedbackStride packets and picks one pseudo-random position in each;
// a run is reported when it covers a picked position, standing for
// feedbackStride packets per pick covered. A run too long to fit
// between two picks (2·feedbackStride−1 packets or more) is reported as
// itself and leaves the walk where it was. Hence:
//
//   - deterministic: the same runs into the same lane give the same
//     weights (no clock, no shared generator);
//   - weight-conserving: over any prefix of the stream the weights sum
//     to within feedbackStride of the packets seen;
//   - an elephant is never invisible: a long run reports its exact length;
//   - no fixed phase: the picked position moves from stratum to stratum,
//     so a periodic stream cannot hide a flow from the sample (or hand
//     one flow all of it), as an every-k-th counter would.
//
// Sampling only ever changes what the scheduler learns, and so which
// flows migrate and when; it never picks a worker by itself. Every run
// is still routed — against the owner's current forwarding view, or by
// the scheduler's own answer on a run it is shown (Engine, inline), or
// on every run under a scheduler that publishes no views (Engine only)
// — and every change of target goes through the lane's fence, so the
// sample cannot reorder a flow.
type feedSampler struct {
	gap  uint32 // packets that pass before the next picked one
	tail uint32 // packets of the picked one's stratum that follow it
	rng  uint64 // xorshift64 state; never zero
}

func newFeedSampler(lane int) feedSampler {
	s := feedSampler{rng: (uint64(lane) + 1) * 0x9e3779b97f4a7c15}
	s.gap = s.draw()
	s.tail = feedbackStride - 1 - s.gap
	return s
}

// draw returns the next stratum's picked position, in [0, feedbackStride).
func (s *feedSampler) draw() uint32 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return uint32(s.rng>>32) % feedbackStride
}

// weigh consumes a run of n packets and returns the weight to report it
// with, zero for a run the sample passes over. The common case, a short
// run between two picks, is one compare and one subtract (gap is below
// 2·feedbackStride−1, so a long run never takes it).
func (s *feedSampler) weigh(n uint32) uint32 {
	if n <= s.gap {
		s.gap -= n
		return 0
	}
	return s.pick(n)
}

// pick is weigh's slow path: the run reaches the next picked position.
// Kept out of line so that weigh's compare-and-subtract inlines into
// its callers.
//
//go:noinline
func (s *feedSampler) pick(n uint32) uint32 {
	if n >= 2*feedbackStride-1 {
		return n
	}
	var w uint32
	for n > s.gap {
		n -= s.gap + 1
		w += feedbackStride
		r := s.draw()
		s.gap = s.tail + r
		s.tail = feedbackStride - 1 - r
	}
	s.gap -= n
	return w
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

// newFeedRing builds a ring of at least capacity records (a power of two).
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
