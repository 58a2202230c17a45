package sketch

import (
	"fmt"
	"math/bits"

	"laps/internal/packet"
)

// ReorderSketch is a bounded-memory watermark store for out-of-order
// detection: d rows of w buckets, each bucket holding the *maximum*
// watermark (one past the highest departed FlowSeq, plus that packet's
// departure time) of every flow hashing into it. A flow's watermark
// estimate is the minimum over its d buckets, so it never reads below
// the truth and a reordered packet is always flagged; a bucket shared
// with a higher-watermark flow can flag an in-order one.
//
// Nothing in the stack records through it any more: past its flow
// budget the egress tracker keeps exact watermarks for a sample of
// flows instead (npsim.ReorderTracker, docs/SCALE.md). It stays only
// because the frozen benchmark ladder still prices a sketch.record rung
// against it, and goes with that rung (ROADMAP item 5).
//
// Memory is width × depth × 16 bytes, independent of the flow count.
type ReorderSketch struct {
	width uint64
	depth int
	cells []rsBucket // row-major: row i is cells[i*width : (i+1)*width]
}

// maxDepth bounds the rows of a ReorderSketch: Record keeps one cell
// pointer per row on the stack between its estimate and update passes.
const maxDepth = 8

// rsSeed keys the sketch's flow hash, keeping it distinct from the
// witness's sampling hash.
const rsSeed = 0xD1B54A32D192ED03

// rsBucket is one sketch cell: the max watermark of all flows mapped
// here and the departure time that set it (the reorder-lag reference).
type rsBucket struct {
	next uint64
	t    int64
}

// NewReorderSketch builds a sketch with the given width (buckets per
// row) and depth (rows). Width must be >= 1, depth in 1..8.
func NewReorderSketch(width, depth int) *ReorderSketch {
	if width < 1 || depth < 1 || depth > maxDepth {
		panic(fmt.Sprintf("sketch: ReorderSketch needs width >= 1 and depth in 1..%d, got %d x %d", maxDepth, width, depth))
	}
	return &ReorderSketch{width: uint64(width), depth: depth, cells: make([]rsBucket, width*depth)}
}

// bucket hashes flow f once into the pair every row's cell derives
// from: row i reads position base + i*stride (double hashing; the
// stride is odd, so never zero — a zero stride would put all of a
// flow's rows on one position).
func (s *ReorderSketch) bucket(f packet.FlowKey) (base, stride uint64) {
	h := KeyHash(&f, rsSeed)
	return h, bits.RotateLeft64(h, 32) | 1
}

// cell returns row i's bucket for a bucket() pair, reducing the 64-bit
// position to [0, width) by multiply-shift — any width, no division.
func (s *ReorderSketch) cell(i int, base, stride uint64) *rsBucket {
	j, _ := bits.Mul64(base+uint64(i)*stride, s.width)
	return &s.cells[uint64(i)*s.width+j]
}

// Record notes one departing packet of flow f with per-flow sequence
// seq at time now (0 when the caller is not tracking time). It reports
// whether the packet was out of order against the flow's estimated
// watermark, and if so the reorder extent: lagPkts sequence numbers
// behind the estimate and lagTime behind the packet that set it.
// Zero-alloc: the scratch lives on the stack and rows are fixed.
func (s *ReorderSketch) Record(f packet.FlowKey, seq uint64, now int64) (ooo bool, lagPkts uint64, lagTime int64) {
	base, stride := s.bucket(f)

	// Estimate = min over rows; remember each row's cell so the update
	// pass below doesn't re-derive it.
	est := ^uint64(0)
	var estT int64
	var cells [maxDepth]*rsBucket
	for i := 0; i < s.depth; i++ {
		bk := s.cell(i, base, stride)
		cells[i] = bk
		if bk.next < est {
			est, estT = bk.next, bk.t
		}
	}

	if seq+1 > est {
		// In order w.r.t. the estimate: raise every bucket below the new
		// watermark. Buckets already higher belong to a colliding flow
		// with a larger watermark; leave them.
		for _, bk := range cells[:s.depth] {
			if seq+1 > bk.next {
				bk.next, bk.t = seq+1, now
			}
		}
		return false, 0, 0
	}
	lagPkts = est - 1 - seq
	if now > estT {
		lagTime = now - estT
	}
	return true, lagPkts, lagTime
}

// Bytes returns the sketch's bucket memory footprint in bytes.
func (s *ReorderSketch) Bytes() int { return int(s.width) * s.depth * 16 }
