// Package telemetry is the live-runtime metrics layer: lock-free
// counters and log-linear histograms recorded on the hot path and
// aggregated only at scrape time, plus a hand-rolled Prometheus
// text-format exposition and an embedded admin HTTP mux.
//
// Design rules (shared with package obs):
//
//   - Nil is off. Every Record/observe method is a no-op on a nil
//     receiver, so instrumented code pays one predictable branch when
//     telemetry is disabled and never needs an "enabled?" flag.
//   - Zero allocations on the record path. Buckets are fixed arrays of
//     atomics sized at construction; recording is an index computation
//     plus three atomic writes.
//   - Single-writer lanes. Each histogram is split into per-writer
//     lanes (one per worker or shard goroutine) padded to cache-line
//     multiples, so concurrent recorders never contend on a line.
//     Scrapers aggregate across lanes with plain atomic loads.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket layout (HDR-histogram style): values 0..7 get one
// bucket each; above that, every power-of-two octave is split into
// 2^subBits = 8 linear sub-buckets, bounding the relative error of any
// recorded value by 1/2^subBits = 12.5%. With int64 values the layout
// needs (64-subBits) octaves of subCount buckets.
const (
	subBits  = 3
	subCount = 1 << subBits

	// NumBuckets covers every non-negative int64: bucket indices run
	// 0..subCount-1 for exact small values, then 8 per octave up to
	// exponent 62.
	NumBuckets = subCount * (64 - subBits)
)

// bucketOf maps a recorded value to its bucket index. Negative values
// clamp to bucket 0 (they only arise from clock skew between cores and
// carry no information).
func bucketOf(v int64) int {
	if v < int64(subCount) {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u) - 1 // >= subBits
	mant := int(u>>(uint(exp)-subBits)) & (subCount - 1)
	return (exp-subBits+1)*subCount + mant
}

// BucketUpper returns the largest value that maps to bucket i — the
// inclusive upper bound used for cumulative counts and quantiles.
func BucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := i/subCount + subBits - 1
	mant := i & (subCount - 1)
	return int64(subCount+mant+1)<<(uint(exp)-subBits) - 1
}

// lane is one writer's private slice of a histogram, padded so adjacent
// lanes never share a cache line. Exactly one goroutine records into a
// lane; any goroutine may read it.
type lane struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	_      [(64 - (NumBuckets*8+16)%64) % 64]byte
}

// HistOpts configures a histogram at registration time.
type HistOpts struct {
	// Name is the full Prometheus family name, e.g.
	// "laps_packet_latency_seconds".
	Name string
	// Help is the one-line HELP text.
	Help string
	// Scale converts recorded (integer) values to the exposed unit:
	// durations are recorded in nanoseconds and exposed in seconds with
	// Scale=1e-9. Zero means 1 (expose raw values).
	Scale float64
	// MinExp/MaxExp pick the exposed le bounds: one cumulative bucket
	// per power of two 2^k for k in [MinExp, MaxExp], plus +Inf.
	// Internal resolution stays at 8 sub-buckets per octave; the
	// exposition collapses to octave granularity to keep scrapes small.
	MinExp, MaxExp int
	// Lanes is the number of single-writer lanes (concurrent
	// recorders), at least 1.
	Lanes int
}

// Hist is a fixed-bucket log-linear histogram. Record is lock-free,
// allocation-free, and safe on a nil receiver.
type Hist struct {
	opts  HistOpts
	lanes []lane
}

// NewHist builds a standalone histogram. Most callers want
// Registry.NewHist, which also registers it for exposition.
func NewHist(o HistOpts) *Hist {
	if o.Lanes < 1 {
		o.Lanes = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.MaxExp <= o.MinExp {
		o.MinExp, o.MaxExp = 0, 62
	}
	return &Hist{opts: o, lanes: make([]lane, o.Lanes)}
}

// Record adds v to the histogram through the given writer lane. The
// caller must guarantee exactly one goroutine records per lane. Nil
// receiver is a no-op.
func (h *Hist) Record(lane int, v int64) {
	if h == nil {
		return
	}
	l := &h.lanes[lane]
	l.counts[bucketOf(v)].Add(1)
	l.sum.Add(v)
	// Single writer per lane: a plain load/store pair cannot lose an
	// update, and readers always see a value that was once the max.
	if v > l.max.Load() {
		l.max.Store(v)
	}
}

// HistSnapshot is a point-in-time aggregate across all lanes.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64
	Max    int64
}

// Snapshot aggregates every lane with atomic loads. Concurrent
// recording keeps the snapshot approximate (counts may trail sums by
// in-flight packets) but every field is individually consistent.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.lanes {
		l := &h.lanes[i]
		for b := range l.counts {
			c := l.counts[b].Load()
			s.Counts[b] += c
			s.Count += c
		}
		s.Sum += l.sum.Load()
		if m := l.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Name returns the histogram's Prometheus family name.
func (h *Hist) Name() string { return h.opts.Name }

// Quantile returns the inclusive upper bound of the bucket containing
// the q-th quantile (0 < q <= 1), so the true value is at most 12.5%
// below the returned one. Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of recorded values, 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
