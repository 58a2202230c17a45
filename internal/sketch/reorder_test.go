package sketch

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"laps/internal/packet"
)

func flow(id int) packet.FlowKey {
	return packet.FlowKey{SrcIP: 0x0A000000 + uint32(id), DstPort: 80, Proto: 6}
}

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
	var falseNeg, trueOOO int
	for i, e := range events {
		ooo, _, _ := s.Record(e.f, e.seq, int64(i))
		if truth[i] {
			trueOOO++
			if !ooo {
				falseNeg++
			}
		}
	}
	if trueOOO == 0 {
		t.Fatal("stream produced no true reordering; test is vacuous")
	}
	if falseNeg != 0 {
		t.Fatalf("%d false negatives (of %d true OOO) — sketch must never miss a reordering", falseNeg, trueOOO)
	}
}

// TestReorderSketchEstimateNeverBelowTruth: after any stream, every
// flow's estimated watermark is at least its true one, so replaying a
// flow's highest departed sequence number is always flagged.
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
		if ooo, _, _ := s.Record(f, w-1, 0); !ooo {
			t.Fatalf("flow %v: its last departed seq %d reads as in order, so the estimate is below the true watermark %d", f, w-1, w)
		}
	}
}

func TestReorderSketchValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewReorderSketch(0, 4) },
		func() { NewReorderSketch(16, 0) },
		// One past the deepest supported sketch: Record's per-row scratch
		// ends at maxDepth.
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
	if s := NewReorderSketch(128, 4); s.Bytes() != 128*4*16 {
		t.Fatalf("geometry: bytes=%d, want %d", s.Bytes(), 128*4*16)
	}
	// The deepest supported sketch keeps the one-sided guarantee on
	// every row.
	s := NewReorderSketch(64, maxDepth)
	s.Record(flow(3), 5, 0)
	if ooo, lag, _ := s.Record(flow(3), 2, 0); !ooo || lag != 3 {
		t.Fatalf("depth %d: Record(seq 2) after seq 5: ooo=%v lag=%d, want true/3", maxDepth, ooo, lag)
	}
}

// TestKeyWordsMatchByteEncoding pins keyWords to its definition: the
// big-endian words of the canonical key bytes. KeyHash, and so the
// witness's sampling and every recorded result built on it, depend on
// exactly these words.
func TestKeyWordsMatchByteEncoding(t *testing.T) {
	ref := func(f packet.FlowKey) (hi, lo uint64) {
		b := f.Bytes()
		hi = binary.BigEndian.Uint64(b[0:8])
		lo = uint64(binary.BigEndian.Uint32(b[8:12]))<<8 | uint64(b[12])
		return hi, lo
	}
	check := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		f := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		hi, lo := keyWords(&f)
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

// FuzzReorderSketchOneSided drives random record sequences through a
// sketch (depth 1..maxDepth, widths that are not powers of two) beside
// an exact watermark map, starting over on a fresh sketch now and then.
// The one-sided contract must hold on every record: a packet the exact
// table calls out of order is flagged, with at least the exact extent.
func FuzzReorderSketchOneSided(f *testing.F) {
	f.Add(uint16(63), uint8(4), []byte{0, 1, 5, 0, 1, 3, 1, 2, 9, 0, 2, 4, 2, 0, 0, 0, 1, 0})
	f.Add(uint16(1), uint8(1), []byte{0, 0, 7, 0, 1, 2, 0, 0, 3})
	f.Add(uint16(1000), uint8(maxDepth), []byte{1, 9, 200, 0, 9, 100, 0, 9, 200, 7, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, width uint16, depth uint8, ops []byte) {
		w := int(width)%1021 + 1
		d := int(depth)%maxDepth + 1
		s := NewReorderSketch(w, d)
		truth := map[packet.FlowKey]uint64{}
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i]%8 == 7 {
				s = NewReorderSketch(w, d)
				clear(truth)
				continue
			}
			fl := flow(int(ops[i+1]) % 48)
			v := uint64(ops[i+2])
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
	})
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
