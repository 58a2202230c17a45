package rob

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstPort: 80, Proto: 6}
}

func pk(flow int, seq uint64) *packet.Packet {
	return &packet.Packet{Flow: fk(flow), FlowSeq: seq, Size: 64}
}

// harness wires a Buffer to an output recorder on a fresh engine.
func harness(cfg Config) (*sim.Engine, *Buffer, *[]*packet.Packet) {
	eng := sim.NewEngine()
	var out []*packet.Packet
	b := New(eng, cfg, func(p *packet.Packet) { out = append(out, p) })
	return eng, b, &out
}

func TestInOrderPassesThrough(t *testing.T) {
	eng, b, out := harness(Config{})
	eng.At(0, func() {
		for i := uint64(0); i < 5; i++ {
			b.Push(pk(1, i))
		}
	})
	eng.Run()
	if len(*out) != 5 {
		t.Fatalf("delivered %d, want 5", len(*out))
	}
	s := b.Stats()
	if s.Passed != 5 || s.Held != 0 {
		t.Fatalf("stats %+v", s)
	}
	if b.occ != 0 {
		t.Fatal("occupancy nonzero")
	}
}

func TestRepairsSimpleSwap(t *testing.T) {
	eng, b, out := harness(Config{})
	eng.At(0, func() {
		b.Push(pk(1, 1)) // early: held
		b.Push(pk(1, 0)) // fills the gap: both released in order
	})
	eng.Run()
	if len(*out) != 2 {
		t.Fatalf("delivered %d", len(*out))
	}
	if (*out)[0].FlowSeq != 0 || (*out)[1].FlowSeq != 1 {
		t.Fatalf("order = %d,%d", (*out)[0].FlowSeq, (*out)[1].FlowSeq)
	}
	s := b.Stats()
	if s.Held != 1 || s.Repaired != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRestoresDeepShuffle(t *testing.T) {
	eng, b, out := harness(Config{Capacity: 64})
	perm := []uint64{3, 0, 5, 1, 4, 2, 6}
	eng.At(0, func() {
		for _, seq := range perm {
			b.Push(pk(1, seq))
		}
	})
	eng.Run()
	if len(*out) != len(perm) {
		t.Fatalf("delivered %d", len(*out))
	}
	for i, p := range *out {
		if p.FlowSeq != uint64(i) {
			t.Fatalf("position %d has seq %d", i, p.FlowSeq)
		}
	}
}

func TestFlowsAreIndependent(t *testing.T) {
	eng, b, out := harness(Config{})
	eng.At(0, func() {
		b.Push(pk(1, 1)) // held (flow 1)
		b.Push(pk(2, 0)) // flow 2 in order: must not be blocked
	})
	eng.Run()
	// Flow 2's packet passed; flow 1's seq 1 only after timeout.
	foundF2 := false
	for _, p := range *out {
		if p.Flow == fk(2) {
			foundF2 = true
		}
	}
	if !foundF2 {
		t.Fatal("independent flow blocked")
	}
}

func TestTimeoutSkipsDroppedPredecessor(t *testing.T) {
	eng, b, out := harness(Config{Timeout: 10 * sim.Microsecond})
	eng.At(0, func() {
		b.Push(pk(1, 0))
		// seq 1 was dropped in the system; 2 arrives and waits.
		b.Push(pk(1, 2))
	})
	eng.Run()
	if len(*out) != 2 {
		t.Fatalf("delivered %d, want 2 (timeout must release seq 2)", len(*out))
	}
	last := (*out)[1]
	if last.FlowSeq != 2 {
		t.Fatalf("last released seq = %d", last.FlowSeq)
	}
	s := b.Stats()
	if s.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", s.TimedOut)
	}
	if b.occ != 0 {
		t.Fatal("packet leaked in buffer")
	}
	// The release happened at the timeout, not immediately.
	if eng.Now() != 10*sim.Microsecond {
		t.Fatalf("final time %v, want 10us", eng.Now())
	}
}

func TestSequenceContinuesAfterTimeout(t *testing.T) {
	eng, b, out := harness(Config{Timeout: 5 * sim.Microsecond})
	eng.At(0, func() {
		b.Push(pk(1, 1)) // 0 dropped
	})
	eng.At(20*sim.Microsecond, func() {
		b.Push(pk(1, 2)) // must now pass straight through
	})
	eng.Run()
	if len(*out) != 2 {
		t.Fatalf("delivered %d", len(*out))
	}
	s := b.Stats()
	if s.Passed != 1 || s.TimedOut != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCapacityEviction(t *testing.T) {
	eng, b, out := harness(Config{Capacity: 3, Timeout: sim.Second})
	eng.At(0, func() {
		// Four different flows each missing seq 0: fourth hold evicts the
		// oldest.
		for f := 1; f <= 4; f++ {
			b.Push(pk(f, 1))
		}
	})
	eng.Run()
	s := b.Stats()
	if s.Evicted == 0 {
		t.Fatal("no eviction under capacity pressure")
	}
	if b.occ > 3 {
		t.Fatalf("occupancy %d exceeds capacity", b.occ)
	}
	_ = out
}

func TestMaxOccupancyTracked(t *testing.T) {
	eng, b, _ := harness(Config{Capacity: 100, Timeout: sim.Second})
	eng.At(0, func() {
		for i := uint64(1); i <= 7; i++ {
			b.Push(pk(1, i)) // all early (0 missing)
		}
	})
	eng.Run()
	if got := b.Stats().MaxOccupancy; got != 7 {
		t.Fatalf("MaxOccupancy = %d, want 7", got)
	}
}

func TestFlushReleasesEverything(t *testing.T) {
	eng, b, out := harness(Config{Timeout: sim.Second})
	eng.At(0, func() {
		b.Push(pk(1, 3))
		b.Push(pk(1, 5))
		b.Push(pk(2, 9))
	})
	eng.RunUntil(sim.Microsecond)
	b.Flush()
	if len(*out) != 3 {
		t.Fatalf("flush delivered %d, want 3", len(*out))
	}
	if b.occ != 0 {
		t.Fatal("occupancy after flush")
	}
}

// TestRestoredStreamIsInOrder is the integration property: feed a
// shuffled-but-bounded stream through the buffer and verify the output
// never regresses per flow (measured with the npsim reorder tracker),
// except for packets the timeout intentionally skipped.
func TestRestoredStreamIsInOrder(t *testing.T) {
	eng := sim.NewEngine()
	tracker := npsim.NewTracker(npsim.TrackerConfig{})
	ooo := 0
	b := New(eng, Config{Capacity: 4096, Timeout: 100 * sim.Microsecond}, func(p *packet.Packet) {
		if tracker.Record(p) {
			ooo++
		}
	})
	rng := rand.New(rand.NewPCG(1, 2))
	// 20 flows; each flow's packets delivered with displacement <= 8.
	const flows, perFlow = 20, 200
	var ts sim.Time
	next := make([]uint64, flows)
	pending := make([][]*packet.Packet, flows)
	for i := 0; i < flows*perFlow; i++ {
		f := int(rng.Int32N(flows))
		p := pk(f, next[f])
		next[f]++
		pending[f] = append(pending[f], p)
		// Keep a 4-deep shuffle window per flow: once it fills, release
		// a random member, so displacement is bounded yet nonzero.
		if len(pending[f]) >= 4 {
			j := int(rng.Int32N(int32(len(pending[f]))))
			q := pending[f][j]
			pending[f] = append(pending[f][:j], pending[f][j+1:]...)
			ts += 100
			eng.At(ts, func() { b.Push(q) })
		}
	}
	// Deliver whatever is still pending, oldest first.
	for f := range pending {
		for _, q := range pending[f] {
			q := q
			ts += 100
			eng.At(ts, func() { b.Push(q) })
		}
	}
	eng.Run()
	b.Flush()
	if ooo != 0 {
		t.Fatalf("%d packets still out of order after restoration", ooo)
	}
	if b.Stats().Repaired == 0 {
		t.Fatal("test degenerate: nothing was ever held")
	}
}

func BenchmarkPushInOrder(b *testing.B) {
	eng := sim.NewEngine()
	buf := New(eng, Config{Capacity: 4096}, func(*packet.Packet) {})
	p := pk(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FlowSeq = uint64(i)
		buf.Push(p)
	}
}

func BenchmarkPushShuffled(b *testing.B) {
	eng := sim.NewEngine()
	buf := New(eng, Config{Capacity: 1 << 16, Timeout: sim.Second}, func(*packet.Packet) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i ^ 1) // swap adjacent pairs
		buf.Push(pk(int(i%64), seq/64))
		_ = seq
	}
}

func TestQuickBoundedPermutationsRestore(t *testing.T) {
	// Property: any within-window shuffle of a single flow's sequence,
	// delivered without timeouts or capacity pressure, comes out fully
	// sorted.
	f := func(swaps []uint8) bool {
		const n = 64
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(i)
		}
		// Apply bounded adjacent-window swaps.
		for _, s := range swaps {
			i := int(s) % (n - 4)
			j := i + 1 + int(s%3)
			seqs[i], seqs[j] = seqs[j], seqs[i]
		}
		eng := sim.NewEngine()
		var out []uint64
		b := New(eng, Config{Capacity: 256, Timeout: sim.Second}, func(p *packet.Packet) {
			out = append(out, p.FlowSeq)
		})
		eng.At(0, func() {
			for _, q := range seqs {
				b.Push(pk(1, q))
			}
		})
		eng.Run()
		b.Flush()
		if len(out) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
