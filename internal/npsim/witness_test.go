package npsim

import (
	"math/rand/v2"
	"testing"

	"laps/internal/packet"
)

// resident reports whether the witness holds flow f.
func (w *witness) resident(f packet.FlowKey) bool {
	return w.tab.Has(f, uint16(witnessHash(&f)))
}

// checkWitness verifies the witness's bookkeeping: the queue holds
// exactly the residents, once each, the moved count matches, and the
// table never outgrows its capacity.
func checkWitness(t *testing.T, w *witness) {
	t.Helper()
	n := w.tab.Len()
	if n > len(w.queue) {
		t.Fatalf("witness holds %d flows, capacity %d", n, len(w.queue))
	}
	seen := make(map[packet.FlowKey]bool, n)
	moved := 0
	for i := 0; i < n; i++ {
		q := w.queue[(w.head+i)%len(w.queue)]
		e := w.tab.Lookup(q.key, q.hash)
		if e == nil || seen[q.key] {
			t.Fatalf("queue slot %d: flow %v resident=%v, already queued=%v", i, q.key, e != nil, seen[q.key])
		}
		seen[q.key] = true
		if e.moved {
			moved++
		}
	}
	if moved != w.moved {
		t.Fatalf("moved count %d, residents marked moved %d", w.moved, moved)
	}
}

// FuzzWitness drives random record / MarkMoved / Reset sequences
// through a budgeted tracker — sampling from the start (MemorySketch)
// or switching past a small budget (MemoryAuto) — beside a naive exact
// map. Over 256 flows and a witness of 64–128, the level rises and
// flows are evicted. After every operation: no false positive ever;
// exact verdicts while exact; and for a flow the witness held before
// the record, the verdict an exact map started when the flow became
// resident would give. A sampled flow is resident after its record and
// a marked one after its mark.
func FuzzWitness(f *testing.F) {
	f.Add(false, uint16(0), []byte{0, 1, 5, 0, 1, 3, 6, 2, 0, 0, 2, 4, 0, 2, 1, 7, 0, 0, 0, 1, 0})
	f.Add(true, uint16(40), []byte{6, 9, 0, 0, 9, 100, 0, 9, 200, 0, 9, 150, 0, 10, 1, 0, 11, 1})
	f.Add(true, uint16(2047), []byte{0, 200, 9, 6, 200, 0, 0, 201, 3, 0, 200, 2, 7, 0, 0, 0, 200, 1})
	f.Fuzz(func(t *testing.T, auto bool, budget uint16, ops []byte) {
		cfg := TrackerConfig{Memory: MemorySketch, FlowBudget: int(budget) % 2048}
		if auto {
			cfg = TrackerConfig{Memory: MemoryAuto, FlowBudget: int(budget)%2048 + 1}
		}
		r := NewTracker(cfg)
		truth := map[packet.FlowKey]uint64{}  // exact watermark since Reset
		shadow := map[packet.FlowKey]uint64{} // exact watermark since the flow became resident
		for i := 0; i+2 < len(ops); i += 3 {
			fl := flowN(uint32(ops[i+1]))
			was := r.sampling
			before := was && r.w.resident(fl)
			switch ops[i] % 8 {
			case 7:
				r.Reset()
				clear(truth)
				clear(shadow)
			case 6:
				r.MarkMoved(fl)
				if !r.w.resident(fl) {
					t.Fatalf("op %d: marked flow %v not resident", i/3, fl)
				}
				if was && !before {
					shadow[fl] = 0
				}
			default:
				seq := uint64(ops[i+2])
				ooo := r.Record(&packet.Packet{Flow: fl, FlowSeq: seq})
				exact := seq+1 <= truth[fl]
				if ooo && !exact {
					t.Fatalf("op %d: flow %v seq %d flagged under true watermark %d", i/3, fl, seq, truth[fl])
				}
				switch {
				case !r.sampling:
					if ooo != exact {
						t.Fatalf("op %d: exact tracker said %v, truth %v", i/3, ooo, exact)
					}
				case !was:
					// Switched on this record: the seeded residents took
					// the exact table's watermarks.
					if r.w.resident(fl) && ooo != exact {
						t.Fatalf("op %d: seeded flow %v said %v, truth %v", i/3, fl, ooo, exact)
					}
				case before:
					if want := seq+1 <= shadow[fl]; ooo != want {
						t.Fatalf("op %d: resident flow %v seq %d: verdict %v, resident watermark %d", i/3, fl, seq, ooo, shadow[fl])
					}
				case ooo:
					t.Fatalf("op %d: flow %v not resident before its record, yet flagged", i/3, fl)
				}
				if !exact {
					truth[fl] = seq + 1
				}
				if r.sampling && InControlGroup(fl, r.Level()) && !r.w.resident(fl) {
					t.Fatalf("op %d: flow %v sampled at level %d but not resident after its record", i/3, fl, r.Level())
				}
				switch {
				case !was && r.sampling:
					for g, wm := range truth {
						if r.w.resident(g) {
							shadow[g] = wm
						}
					}
				case r.sampling && !ooo && r.w.resident(fl):
					shadow[fl] = seq + 1
				}
			}
			if r.sampling {
				for g := range shadow {
					if !r.w.resident(g) {
						delete(shadow, g)
					}
				}
			}
			if r.w != nil {
				checkWitness(t, r.w)
			}
		}
	})
}

// TestWitnessMovedStormStaysBounded: more moved flows than the witness
// holds, all of them recent. The control group cannot shrink past a
// table of moved flows, so the witness evicts the oldest mark instead —
// the table stays at its capacity, the level stays put, and every
// eviction is counted.
func TestWitnessMovedStormStaysBounded(t *testing.T) {
	r := NewTracker(TrackerConfig{Memory: MemorySketch, FlowBudget: 1 << 10})
	capacity := witnessCap(1 << 10)
	const rounds = 100
	for f := uint32(0); f < rounds*uint32(capacity); f++ {
		r.MarkMoved(flowN(f))
		r.Record(&packet.Packet{Flow: flowN(f), FlowSeq: 1})
		if r.Record(&packet.Packet{Flow: flowN(f), FlowSeq: 0}) != true {
			t.Fatalf("moved flow %d: reordering right after its mark not seen", f)
		}
	}
	checkWitness(t, r.w)
	if r.Flows() != capacity || r.Level() != 0 {
		t.Fatalf("Flows=%d Level=%d, want %d and 0", r.Flows(), r.Level(), capacity)
	}
	if want := uint64((rounds - 1) * capacity); r.Evicted() != want {
		t.Fatalf("Evicted=%d, want %d", r.Evicted(), want)
	}
	if r.OutOfOrder() != rounds*uint64(capacity) || r.ScaledOOO() != r.OutOfOrder() {
		t.Fatalf("OutOfOrder=%d ScaledOOO=%d, want %d each (moved detections count 1)",
			r.OutOfOrder(), r.ScaledOOO(), rounds*capacity)
	}
}

// TestWitnessLevelFollowsLiveFlows: the level is set by how many flows
// are live at once, not by how many have ever passed. A churn of
// short flows, always 1024 live (far more than the witness's 64),
// pushes the level up early; ten times as many flows later it
// has not moved.
func TestWitnessLevelFollowsLiveFlows(t *testing.T) {
	const live, perFlow = 1024, 4
	r := NewTracker(TrackerConfig{Memory: MemorySketch, FlowBudget: 1 << 10})
	rng := rand.New(rand.NewPCG(5, 6))
	type slot struct{ flow, seq uint64 }
	slots := make([]slot, live)
	next := uint64(0)
	for i := range slots {
		slots[i] = slot{flow: next}
		next++
	}
	churn := func(pkts int) {
		for range pkts {
			s := &slots[rng.IntN(live)]
			r.Record(&packet.Packet{Flow: mixedFlow(s.flow), FlowSeq: s.seq})
			if s.seq++; s.seq == perFlow {
				*s = slot{flow: next}
				next++
			}
		}
	}
	churn(32 * live * perFlow)
	settled, early := r.Level(), next
	if settled == 0 {
		t.Fatalf("%d live flows through a %d-flow witness left the level at 0", live, witnessCap(1<<10))
	}
	churn(320 * live * perFlow)
	if r.Level() != settled {
		t.Fatalf("level moved %d → %d between %d and %d flows, %d live throughout", settled, r.Level(), early, next, live)
	}
	if r.OutOfOrder() != 0 {
		t.Fatalf("in-order stream flagged %d times", r.OutOfOrder())
	}
	t.Logf("level %d after %d flows and after %d: a %d-flow sample of %d live, %d evicted",
		settled, early, next, live>>settled, live, r.Evicted())
}

// witnessChurn returns a tracker shaped like one sharded_churn tracker
// shard past its budget — a 128-flow witness under 2048 live flows of 6
// packets each — and a step that records the next packet of that churn
// through it, drawing the packet (an LCG pick and a key mix) in place.
func witnessChurn() (*ReorderTracker, func()) {
	r := NewTracker(TrackerConfig{Memory: MemorySketch, FlowBudget: 1 << 11})
	type slot struct{ flow, seq uint64 }
	slots := make([]slot, 1<<11)
	for i := range slots {
		slots[i].flow = uint64(i)
	}
	next, x := uint64(len(slots)), uint64(1)
	var p packet.Packet
	return r, func() {
		x = x*6364136223846793005 + 1442695040888963407
		s := &slots[x>>53]
		p.Flow, p.FlowSeq = mixedFlow(s.flow), s.seq
		r.RecordAt(&p, 0)
		if s.seq++; s.seq == 6 {
			s.flow, s.seq = next, 0
			next++
		}
	}
}

// BenchmarkTrackerWitnessRecord prices a record past the flow budget:
// mostly unsampled packets (a hash and a compare), the control group's
// probes, inserts and evictions, and the level's upkeep.
func BenchmarkTrackerWitnessRecord(b *testing.B) {
	r, step := witnessChurn()
	for range 1 << 16 { // let the level settle
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step()
	}
	b.ReportMetric(float64(r.Level()), "level")
}
