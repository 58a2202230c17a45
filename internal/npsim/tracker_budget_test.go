package npsim

import (
	"math/rand/v2"
	"testing"

	"laps/internal/packet"
)

// mixedFlow derives a well-spread flow key from an index (sequential
// SrcIP-style keys concentrate the unluckiness of any fixed hash seed
// onto reproducible flows; real 5-tuples look like this instead).
func mixedFlow(n uint64) packet.FlowKey {
	x := (n + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return packet.FlowKey{
		SrcIP: uint32(x >> 32), DstIP: uint32(x),
		SrcPort: uint16(x >> 16), DstPort: uint16(x),
	}
}

// budgetStream builds a deterministic packet stream over nFlows flows
// with ~10% adjacent swaps — genuine reordering, preserved flow
// locality.
func budgetStream(nFlows, perFlow int, seed uint64) []*packet.Packet {
	rng := rand.New(rand.NewPCG(seed, 77))
	var ps []*packet.Packet
	for f := 0; f < nFlows; f++ {
		for s := 0; s < perFlow; s++ {
			ps = append(ps, &packet.Packet{Flow: mixedFlow(uint64(f)), FlowSeq: uint64(s)})
		}
	}
	for i := 0; i+1 < len(ps); i += 2 {
		if rng.Float64() < 0.10 {
			ps[i], ps[i+1] = ps[i+1], ps[i]
		}
	}
	return ps
}

// TestTrackerSketchNeverMissesOOO is the exact-vs-witness conformance
// core on one stream. A MemorySketch tracker witnesses from the start:
// while its table holds every live flow (here flows depart one after
// another, so one at a time) it stays at level 0 and its verdicts are
// the exact tracker's, packet for packet. Interleave the same flows
// past its capacity and the level rises; the verdicts it still gives
// are a subset of the exact ones — never a false positive.
func TestTrackerSketchNeverMissesOOO(t *testing.T) {
	const nFlows, perFlow = 400, 40
	for _, interleave := range []bool{false, true} {
		exact := NewTracker(TrackerConfig{})
		wit := NewTracker(TrackerConfig{Memory: MemorySketch, FlowBudget: 4096})
		if !wit.sampling {
			t.Fatal("MemorySketch tracker not sampling from the start")
		}
		ps := budgetStream(nFlows, perFlow, 42)
		if interleave {
			rand.New(rand.NewPCG(3, 4)).Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		}
		var exactOOO, witOOO, agree uint64
		for i, p := range ps {
			q := *p
			e, _, _ := exact.RecordAt(p, 0)
			w, _, _ := wit.RecordAt(&q, 0)
			if w && !e {
				t.Fatalf("interleave=%v packet %d: witness flagged an in-order packet", interleave, i)
			}
			if e {
				exactOOO++
			}
			if w {
				witOOO++
			}
			if w == e {
				agree++
			}
		}
		if exact.OutOfOrder() != exactOOO || wit.OutOfOrder() != witOOO || wit.EstimatedOOO() != witOOO {
			t.Fatal("counter mismatch with per-record tally")
		}
		if exactOOO == 0 {
			t.Fatal("stream has no reordering; the test is vacuous")
		}
		switch {
		case !interleave && (wit.Level() != 0 || witOOO != exactOOO):
			t.Fatalf("flows one at a time: level %d, witness %d OOO vs exact %d; want level 0 and every one seen",
				wit.Level(), witOOO, exactOOO)
		case interleave && wit.Level() == 0:
			t.Fatalf("%d interleaved flows through a %d-flow witness left the level at 0", nFlows, witnessCap(4096))
		}
		t.Logf("interleave=%v: level %d, exact %d OOO, witness %d (scaled %d), %d of %d verdicts agree",
			interleave, wit.Level(), exactOOO, witOOO, wit.ScaledOOO(), agree, len(ps))
	}
}

// TestTrackerAutoDegrades pins the MemoryAuto switch: exact until the
// live-flow count crosses FlowBudget, then sampled — and a flow's
// pre-switch watermark survives it iff the flow is in the control group
// at the level the seeding settled on, or was marked moved. The table
// at the switch holds more flows than the witness, so seeding raises
// the level; moved flows ride through whatever their hash.
func TestTrackerAutoDegrades(t *testing.T) {
	const budget, marked = 64, 8
	r := NewTracker(TrackerConfig{FlowBudget: budget, Memory: MemoryAuto})
	for f := uint32(0); f < marked; f++ {
		r.MarkMoved(flowN(f))
	}
	// Drive seq 0..9 in order, flow after flow, and stop at the switch.
	var f uint32
	for ; !r.sampling; f++ {
		for s := uint64(0); s < 10 && !r.sampling; s++ {
			if ooo, _, _ := r.RecordAt(&packet.Packet{Flow: flowN(f), FlowSeq: s}, 0); ooo {
				t.Fatalf("in-order stream flagged OOO (flow %d seq %d)", f, s)
			}
		}
	}
	if f != budget+1 {
		t.Fatalf("switched after %d flows, want budget+1 = %d", f, budget+1)
	}
	if r.BudgetHits() != 1 || r.Level() == 0 || r.Evicted() != 0 {
		t.Fatalf("BudgetHits=%d Level=%d Evicted=%d, want 1, > 0 (the seeding overflowed the witness), 0",
			r.BudgetHits(), r.Level(), r.Evicted())
	}
	kept := 0
	for g := uint32(0); g < budget; g++ {
		// Seq 3 of a finished flow (watermark 10) is a genuine reordering;
		// it is seen exactly when the watermark survived.
		want := g < marked || InControlGroup(flowN(g), r.Level())
		if ooo, _, _ := r.RecordAt(&packet.Packet{Flow: flowN(g), FlowSeq: 3}, 0); ooo != want {
			t.Fatalf("flow %d (moved=%v, sampled at level %d=%v): stale packet flagged=%v",
				g, g < marked, r.Level(), InControlGroup(flowN(g), r.Level()), ooo)
		}
		if want {
			kept++
		}
	}
	if kept <= marked || kept == budget {
		t.Fatalf("%d of %d watermarks survived: want the moved ones plus a strict sample of the rest", kept, budget)
	}
	if r.Flows() > witnessCap(budget) {
		t.Fatalf("witness holds %d flows, capacity %d", r.Flows(), witnessCap(budget))
	}
	// Reset reverts auto mode to exact.
	r.Reset()
	if r.sampling || r.BudgetHits() != 0 || r.EstimatedOOO() != 0 || r.Level() != 0 {
		t.Fatal("Reset did not revert auto tracker to exact mode")
	}
}

// TestTrackerAutoNoBudgetNeverDegrades pins that MemoryAuto with no
// budget (the zero config) is plain exact tracking.
func TestTrackerAutoNoBudgetNeverDegrades(t *testing.T) {
	r := NewTracker(TrackerConfig{})
	for f := uint32(0); f < 5000; f++ {
		r.RecordAt(&packet.Packet{Flow: flowN(f), FlowSeq: 0}, 0)
	}
	if r.sampling || r.BudgetHits() != 0 {
		t.Fatal("zero-config tracker degraded")
	}
	if r.Flows() != 5000 {
		t.Fatalf("Flows=%d, want 5000 exact entries", r.Flows())
	}
}

// TestTrackerExactBudgetIsFIFOCap pins MemoryExact: the budget is a
// hard cap with FIFO eviction, never a witness.
func TestTrackerExactBudgetIsFIFOCap(t *testing.T) {
	r := NewTracker(TrackerConfig{FlowBudget: 8, Memory: MemoryExact})
	for f := uint32(0); f < 100; f++ {
		r.RecordAt(&packet.Packet{Flow: flowN(f), FlowSeq: 0}, 0)
	}
	if r.sampling {
		t.Fatal("MemoryExact tracker started sampling")
	}
	if r.Flows() != 8 {
		t.Fatalf("Flows=%d, want hard cap 8", r.Flows())
	}
	if r.Evicted() != 92 {
		t.Fatalf("Evicted=%d, want 92", r.Evicted())
	}
}

// TestParseMemoryClass pins the CLI surface.
func TestParseMemoryClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MemoryClass
	}{{"auto", MemoryAuto}, {"exact", MemoryExact}, {"sketch", MemorySketch}} {
		got, err := ParseMemoryClass(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMemoryClass(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round-trip: %q != %q", got.String(), tc.in)
		}
	}
	if _, err := ParseMemoryClass("bogus"); err == nil {
		t.Fatal("ParseMemoryClass accepted garbage")
	}
}
