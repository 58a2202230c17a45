package runtime

import "laps/internal/packet"

// obsRec is one sampled flow run a shard holds until its next training
// pass: what a scheduler reads of a packet — flow, cached hash,
// service, size — plus the number of packets it stands for, which is
// the lane's feedSampler weight and not the run's own length: the
// scheduler is shown a sample of the shard's stream, each record
// weighted so that the AFD and the scheduler still count every arrival
// (Detector.ObserveBatchH, TargetN). 28 bytes, against 96 for a
// descriptor copy and its weight.
type obsRec struct {
	flow packet.FlowKey
	hash uint16
	svc  packet.ServiceID
	size uint32
	n    uint32
}

// fill rebuilds the scheduler-visible fields of a descriptor from the
// record; every other field of p is left as it was (zero, on the
// training pass's scratch descriptor).
func (r *obsRec) fill(p *packet.Packet) {
	p.Flow = r.flow
	p.Hash, p.HashOK = r.hash, true
	p.Service = r.svc
	p.Size = int(r.size)
}

// feedbackStride is the training sampling rate: a lane shows its
// scheduler one weighted observation per this many packets. The paper
// trains its detector off the critical path and on a sample (Fig 8c:
// sampling filters mice out of the AFC); 1-in-8 took training from 30 %
// of sharded_churn's CPU to under 10 %, and 1-in-64 bought nothing more
// (docs/PERFORMANCE.md). One value in use, so a constant.
const feedbackStride = 8

// feedSampler picks which flow runs of a lane train the scheduler, and
// with what weight: the runs a shard trains in its next pass, the runs
// Engine shows its inline scheduler. Each lane has one, seeded
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
