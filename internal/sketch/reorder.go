package sketch

import (
	"fmt"
	"math/bits"

	"laps/internal/packet"
)

// ReorderSketch is a bounded-memory watermark store for out-of-order
// detection, after "Detecting TCP Packet Reordering in the Data Plane":
// instead of one exact watermark per flow, it keeps d rows of w buckets
// where each bucket holds the *maximum* watermark (one past the highest
// departed FlowSeq, plus that packet's departure time) of every flow
// hashing into it. A flow's watermark estimate is the minimum over its
// d buckets.
//
// The estimate is one-sided: buckets only ever grow, and every update
// of flow f raises all of f's buckets to at least f's true watermark,
// so estimate(f) >= watermark(f) always. A packet that is truly out of
// order (seq+1 <= watermark) therefore always satisfies
// seq+1 <= estimate — the sketch has **zero false negatives**. It can
// over-report: a bucket shared with a higher-watermark flow inflates
// the estimate, flagging an in-order packet as reordered. With n live
// flows and independent row hashes, the chance that all d buckets of a
// flow are contaminated is at most (n/w)^d per recorded packet, which
// is the documented false-positive bound (meaningful when n < w; size
// w at or above the expected live flow count). The one-sided guarantee
// needs only that Record, Estimate and Seed agree on a flow's buckets
// (they share bucket/cell below); the bound additionally needs the rows
// to behave independently, which TestReorderSketchFalsePositiveBound
// measures.
//
// Under flow churn the raw bound rots: dead flows leave their
// watermarks behind, so after 10^6 short flows have passed through a
// 2^11-bucket sketch every bucket is contaminated and nearly every
// packet of a fresh flow gets flagged. SetHorizon enables record-count
// aging to fix this: a bucket untouched for more than horizon Record
// calls is treated as empty, shrinking n in the bound from "flows ever
// seen" to "flows active within the last horizon records". The price is
// bounded staleness on the no-false-negative guarantee — a flow silent
// for more than horizon departures can lose its watermark, so a
// reordered packet arriving after such a silence may go unflagged.
// docs/SCALE.md derives both regimes.
//
// Memory is width × depth × 24 bytes, independent of the flow count.
type ReorderSketch struct {
	width   uint64
	depth   int
	records uint64
	horizon uint64     // 0 = no aging
	cells   []rsBucket // row-major: row i is cells[i*width : (i+1)*width]
}

// maxDepth bounds the rows of a ReorderSketch: Record keeps one cell
// pointer per row on the stack between its estimate and update passes.
const maxDepth = 8

// rsSeed keys the flow hash, keeping it distinct from CountMin's rows.
const rsSeed = 0xD1B54A32D192ED03

// rsBucket is one sketch cell: the max watermark of all flows mapped
// here, the departure time that set it (the reorder-lag reference), and
// the Record count at the last write (the aging clock).
type rsBucket struct {
	next uint64
	t    int64
	at   uint64
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
// flow's rows on one position). The top and bottom halves of one 64-bit
// mix are the two hashes.
func (s *ReorderSketch) bucket(f packet.FlowKey) (base, stride uint64) {
	hi, lo := keyWords(f)
	h := mix64(mix64(hi^rsSeed) + lo)
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
	s.records++
	est := ^uint64(0)
	var estT int64
	var cells [maxDepth]*rsBucket
	for i := 0; i < s.depth; i++ {
		bk := s.cell(i, base, stride)
		cells[i] = bk
		next, bt := bk.next, bk.t
		if s.horizon != 0 && s.records-bk.at > s.horizon {
			next, bt = 0, 0 // stale: its flow has not departed in a horizon
		}
		if next < est {
			est, estT = next, bt
		}
	}

	if seq+1 > est {
		// In order w.r.t. the estimate: raise every bucket that is
		// below the new watermark — where "below" discounts stale
		// watermarks, whose flows are gone. Live buckets already higher
		// belong to a colliding flow with a larger watermark; leave
		// them (but refresh their clock: this flow keeps them warm).
		for _, bk := range cells[:s.depth] {
			if seq+1 > bk.next || (s.horizon != 0 && s.records-bk.at > s.horizon) {
				bk.next, bk.t = seq+1, now
			}
			bk.at = s.records
		}
		return false, 0, 0
	}
	lagPkts = est - 1 - seq
	if now > estT {
		lagTime = now - estT
	}
	return true, lagPkts, lagTime
}

// Estimate returns the flow's estimated watermark: one past the highest
// FlowSeq believed to have departed. Never below the true watermark.
func (s *ReorderSketch) Estimate(f packet.FlowKey) uint64 {
	base, stride := s.bucket(f)
	est := ^uint64(0)
	for i := 0; i < s.depth; i++ {
		bk := s.cell(i, base, stride)
		v := bk.next
		if s.horizon != 0 && s.records-bk.at > s.horizon {
			v = 0
		}
		if v < est {
			est = v
		}
	}
	return est
}

// Seed raises flow f's buckets to at least the given watermark. Used
// when an exact tracker degrades into a sketch: seeding every exact
// entry preserves the no-false-negative invariant across the switch.
func (s *ReorderSketch) Seed(f packet.FlowKey, next uint64, t int64) {
	base, stride := s.bucket(f)
	for i := 0; i < s.depth; i++ {
		bk := s.cell(i, base, stride)
		if next > bk.next || (s.horizon != 0 && s.records-bk.at > s.horizon) {
			bk.next, bk.t = next, t
		}
		bk.at = s.records
	}
}

// SetHorizon enables record-count aging: a bucket not written or kept
// warm for more than h Record calls reads as empty. h = 0 disables
// aging (the default). Size h well above the longest expected in-flow
// departure gap; width is a reasonable default when flows churn.
func (s *ReorderSketch) SetHorizon(h uint64) { s.horizon = h }

// Horizon returns the aging horizon in Record calls (0 = no aging).
func (s *ReorderSketch) Horizon() uint64 { return s.horizon }

// Reset zeroes every bucket and the aging clock, keeping the
// allocation and the configured horizon.
func (s *ReorderSketch) Reset() {
	clear(s.cells)
	s.records = 0
}

// Width returns buckets per row; Depth the number of rows.
func (s *ReorderSketch) Width() int { return int(s.width) }
func (s *ReorderSketch) Depth() int { return s.depth }

// Bytes returns the sketch's bucket memory footprint in bytes.
func (s *ReorderSketch) Bytes() int { return int(s.width) * s.depth * 24 }
