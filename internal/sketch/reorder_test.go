package sketch

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"laps/internal/packet"
)

// exactWatermarks replays the same stream an exact tracker would see and
// returns, per packet, whether it was truly out of order.
type rsEvent struct {
	f   packet.FlowKey
	seq uint64
}

func playExact(events []rsEvent) []bool {
	wm := map[packet.FlowKey]uint64{}
	out := make([]bool, len(events))
	for i, e := range events {
		if e.seq+1 <= wm[e.f] {
			out[i] = true
		} else {
			wm[e.f] = e.seq + 1
		}
	}
	return out
}

// randomStream builds an interleaved multi-flow stream with genuine
// reordering: each flow's packets are emitted mostly in order but with
// occasional swaps.
func randomStream(flows, pkts int, seed uint64) []rsEvent {
	rng := rand.New(rand.NewPCG(seed, seed^0xBEEF))
	next := make([]uint64, flows)
	events := make([]rsEvent, 0, pkts)
	for len(events) < pkts {
		fi := int(rng.Int32N(int32(flows)))
		seq := next[fi]
		next[fi]++
		events = append(events, rsEvent{flow(fi), seq})
		// With 10% probability, swap this packet behind the next one of
		// the same flow to manufacture a true reordering.
		if rng.Float64() < 0.10 && len(events) >= 2 {
			j := len(events) - 1
			events[j-1], events[j] = events[j], events[j-1]
		}
	}
	return events
}

func TestReorderSketchNoFalseNegatives(t *testing.T) {
	events := randomStream(500, 50000, 42)
	truth := playExact(events)
	s := NewReorderSketch(2048, 4)
	var falseNeg, falsePos, trueOOO int
	for i, e := range events {
		ooo, _, _ := s.Record(e.f, e.seq, int64(i))
		if truth[i] {
			trueOOO++
			if !ooo {
				falseNeg++
			}
		} else if ooo {
			falsePos++
		}
	}
	if trueOOO == 0 {
		t.Fatal("stream produced no true reordering; test is vacuous")
	}
	if falseNeg != 0 {
		t.Fatalf("%d false negatives (of %d true OOO) — sketch must never miss a reordering", falseNeg, trueOOO)
	}
	// 500 flows in 2048 buckets × 4 rows: FP bound (500/2048)^4 ≈ 0.36%.
	// Allow 4× slack over the analytic bound for hash non-ideality.
	bound := 1.0
	for i := 0; i < 4; i++ {
		bound *= 500.0 / 2048.0
	}
	if limit := 4 * bound * float64(len(events)); float64(falsePos) > limit {
		t.Fatalf("%d false positives exceeds 4x analytic bound %.1f", falsePos, limit)
	}
}

func TestReorderSketchEstimateNeverBelowTruth(t *testing.T) {
	events := randomStream(300, 20000, 7)
	s := NewReorderSketch(1024, 4)
	wm := map[packet.FlowKey]uint64{}
	for _, e := range events {
		s.Record(e.f, e.seq, 0)
		if e.seq+1 > wm[e.f] {
			wm[e.f] = e.seq + 1
		}
	}
	for f, w := range wm {
		if est := s.Estimate(f); est < w {
			t.Fatalf("flow %v estimate %d below true watermark %d", f, est, w)
		}
	}
}

func TestReorderSketchSeedPreservesInvariant(t *testing.T) {
	s := NewReorderSketch(512, 4)
	s.Seed(flow(1), 100, 5)
	if est := s.Estimate(flow(1)); est < 100 {
		t.Fatalf("estimate %d after Seed(100)", est)
	}
	// A straggler below the seeded watermark must be flagged.
	if ooo, lag, _ := s.Record(flow(1), 42, 10); !ooo || lag != 100-1-42 {
		t.Fatalf("Record(42) after Seed(100): ooo=%v lag=%d, want true/%d", ooo, lag, 100-1-42)
	}
	// The next in-sequence packet is in order.
	if ooo, _, _ := s.Record(flow(1), 100, 11); ooo {
		t.Fatal("Record(100) after Seed(100) flagged out of order")
	}
}

func TestReorderSketchReset(t *testing.T) {
	s := NewReorderSketch(256, 3)
	s.Record(flow(9), 50, 1)
	s.Reset()
	if est := s.Estimate(flow(9)); est != 0 {
		t.Fatalf("estimate %d after Reset, want 0", est)
	}
	if ooo, _, _ := s.Record(flow(9), 0, 2); ooo {
		t.Fatal("first packet after Reset flagged out of order")
	}
}

func TestReorderSketchValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewReorderSketch(0, 4) },
		func() { NewReorderSketch(16, 0) },
		// One past the deepest supported sketch: Record's per-row scratch
		// ends at maxDepth, and a row Record skipped would read 0 in
		// Estimate under a recorded watermark.
		func() { NewReorderSketch(64, maxDepth+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
	if s := NewReorderSketch(128, 4); s.Width() != 128 || s.Depth() != 4 || s.Bytes() != 128*4*24 {
		t.Fatalf("geometry: w=%d d=%d bytes=%d", s.Width(), s.Depth(), s.Bytes())
	}
	// The deepest supported sketch keeps the one-sided guarantee on
	// every row.
	s := NewReorderSketch(64, maxDepth)
	s.Record(flow(3), 5, 0)
	if est := s.Estimate(flow(3)); est != 6 {
		t.Fatalf("depth %d: estimate %d after Record(seq 5), want 6", maxDepth, est)
	}
}

// TestKeyWordsMatchByteEncoding pins keyWords to its definition: the
// big-endian words of the canonical key bytes. CountMin's indices, and
// every recorded result built on them, depend on exactly these words.
func TestKeyWordsMatchByteEncoding(t *testing.T) {
	ref := func(f packet.FlowKey) (hi, lo uint64) {
		b := f.Bytes()
		hi = binary.BigEndian.Uint64(b[0:8])
		lo = uint64(binary.BigEndian.Uint32(b[8:12]))<<8 | uint64(b[12])
		return hi, lo
	}
	check := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		f := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		hi, lo := keyWords(f)
		rhi, rlo := ref(f)
		return hi == rhi && lo == rlo
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if !check(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 0xFF) || !check(0, 0, 0, 0, 0) {
		t.Fatal("keyWords disagrees with the byte encoding at an extreme key")
	}
}

// TestReorderSketchFalsePositiveBound measures the documented (n/w)^d
// bound where it is tight enough to notice rows that stopped behaving
// independently — the risk of deriving all d positions from one hash.
// n = w/2 flows are live at once and never reordered; their sequence
// spaces are stacked (rank r starts at r<<32), so a flow is flagged
// exactly when every one of its d buckets also holds a higher-ranked
// flow. For ideal independent rows that is (1-(1-1/w)^a)^d for a flow
// with a flows above it; averaged over ranks, at n/w = 1/2 and d = 4,
// about 0.56% of packets. Rows collapsing to three effective hashes
// would read about 3x that, to two about 10x (both measured).
func TestReorderSketchFalsePositiveBound(t *testing.T) {
	const (
		w      = 1 << 16
		n      = w / 2
		d      = 4
		rounds = 4
	)
	rng := rand.New(rand.NewPCG(11, 13))
	rank := rng.Perm(n)
	s := NewReorderSketch(w, d)
	for i := 0; i < n; i++ { // every flow goes live
		s.Record(flow(i), uint64(rank[i])<<32, 0)
	}
	flagged := 0
	for r := 1; r <= rounds; r++ {
		for _, i := range rng.Perm(n) {
			if ooo, _, _ := s.Record(flow(i), uint64(rank[i])<<32+uint64(r), 0); ooo {
				flagged++
			}
		}
	}
	rate := float64(flagged) / float64(rounds*n)

	ideal := 0.0
	for above := 0; above < n; above++ {
		ideal += math.Pow(1-math.Pow(1-1.0/w, float64(above)), d)
	}
	ideal /= n
	bound := math.Pow(float64(n)/w, d)
	t.Logf("flagged %.3f%% of %d in-order packets; independent rows predict %.3f%%, bound (n/w)^d = %.2f%%",
		100*rate, rounds*n, 100*ideal, 100*bound)
	if flagged == 0 {
		t.Fatal("no false positives at n/w = 1/2: the flows never collided, the test is vacuous")
	}
	if rate > 2*bound {
		t.Fatalf("false-positive rate %.3f%% exceeds twice the documented bound %.2f%%", 100*rate, 100*bound)
	}
	if rate > 1.5*ideal {
		t.Fatalf("false-positive rate %.3f%% is over 1.5x the %.3f%% independent rows give: the rows are correlated", 100*rate, 100*ideal)
	}
}

// FuzzReorderSketchOneSided drives random Record/Seed/Reset sequences
// through a sketch (horizon off, depth 1..maxDepth, widths that are not
// powers of two) beside an exact watermark map. The one-sided contract
// must hold after every operation: a packet the exact table calls out
// of order is flagged, and Estimate never reads below the truth.
func FuzzReorderSketchOneSided(f *testing.F) {
	f.Add(uint16(63), uint8(4), []byte{0, 1, 5, 0, 1, 3, 1, 2, 9, 0, 2, 4, 2, 0, 0, 0, 1, 0})
	f.Add(uint16(1), uint8(1), []byte{0, 0, 7, 0, 1, 2, 0, 0, 3})
	f.Add(uint16(1000), uint8(maxDepth), []byte{1, 9, 200, 0, 9, 100, 0, 9, 200, 2, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, width uint16, depth uint8, ops []byte) {
		w := int(width)%1021 + 1
		d := int(depth)%maxDepth + 1
		s := NewReorderSketch(w, d)
		truth := map[packet.FlowKey]uint64{}
		for i := 0; i+2 < len(ops); i += 3 {
			fl := flow(int(ops[i+1]) % 48)
			v := uint64(ops[i+2])
			switch ops[i] % 8 {
			case 6:
				s.Seed(fl, v, int64(i))
				if v > truth[fl] {
					truth[fl] = v
				}
			case 7:
				s.Reset()
				clear(truth)
			default:
				ooo, lag, _ := s.Record(fl, v, int64(i))
				exact := v+1 <= truth[fl]
				if exact && !ooo {
					t.Fatalf("op %d: %dx%d sketch missed a reordering: flow %v seq %d under watermark %d", i/3, w, d, fl, v, truth[fl])
				}
				if exact && lag < truth[fl]-1-v {
					t.Fatalf("op %d: reorder extent %d below the exact extent %d", i/3, lag, truth[fl]-1-v)
				}
				if !exact {
					truth[fl] = v + 1
				}
			}
			for g, wm := range truth {
				if est := s.Estimate(g); est < wm {
					t.Fatalf("op %d: %dx%d sketch estimates %d for flow %v, true watermark %d", i/3, w, d, est, g, wm)
				}
			}
		}
	})
}

// TestReorderSketchHorizonAgesOutDeadFlows pins the churn-aging
// contract: with a horizon set, a watermark left by a flow that stopped
// departing reads as empty after horizon further records, so it no
// longer contaminates colliding fresh flows; without a horizon it
// persists forever.
func TestReorderSketchHorizonAgesOutDeadFlows(t *testing.T) {
	filler := func(i int) packet.FlowKey { return flow(1000 + i) }
	run := func(horizon uint64) uint64 {
		s := NewReorderSketch(64, 1)
		s.SetHorizon(horizon)
		s.Record(flow(7), 99, 1) // dead flow leaves watermark 100
		for i := 0; i < 200; i++ {
			s.Record(filler(i%8), uint64(i/8), int64(i))
		}
		return s.Estimate(flow(7))
	}
	if est := run(0); est != 100 {
		t.Fatalf("no horizon: watermark %d, want the original 100 forever", est)
	}
	if est := run(100); est >= 100 {
		t.Fatalf("horizon 100: stale watermark %d still visible after 200 records", est)
	}
	// Within the horizon the watermark must survive — the one-sided
	// guarantee is only relaxed past the staleness bound.
	s := NewReorderSketch(64, 4)
	s.SetHorizon(1000)
	s.Record(flow(7), 99, 1)
	for i := 0; i < 500; i++ {
		s.Record(filler(i%8), uint64(i/8), int64(i))
	}
	if ooo, _, _ := s.Record(flow(7), 42, 501); !ooo {
		t.Fatal("straggler within the horizon not flagged")
	}
	if s.Horizon() != 1000 {
		t.Fatalf("Horizon()=%d, want 1000", s.Horizon())
	}
}

func TestReorderSketchRecordZeroAlloc(t *testing.T) {
	s := NewReorderSketch(4096, 4)
	keys := make([]packet.FlowKey, 64)
	for i := range keys {
		keys[i] = flow(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Record(keys[i&63], uint64(i), int64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkReorderSketchRecord(b *testing.B) {
	s := NewReorderSketch(1<<16, 4)
	flows := make([]packet.FlowKey, 1024)
	for i := range flows {
		flows[i] = flow(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(flows[i&1023], uint64(i>>10), int64(i))
	}
}
