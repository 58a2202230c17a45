package npsim

import (
	"testing"

	"laps/internal/packet"
)

func flowN(n uint32) packet.FlowKey {
	return packet.FlowKey{SrcIP: n, DstIP: ^n}
}

// TestReorderTrackerUnboundedDefault: without a budget, or within one,
// the tracker holds every flow exactly and evicts nothing.
func TestReorderTrackerUnboundedDefault(t *testing.T) {
	for _, r := range []*ReorderTracker{NewTracker(TrackerConfig{}), NewTracker(TrackerConfig{FlowBudget: 100})} {
		for i := uint32(0); i < 100; i++ {
			r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
		}
		if r.Flows() != 100 || r.Evicted() != 0 || r.BudgetHits() != 0 {
			t.Fatalf("tracker within its budget evicted or switched: flows=%d evicted=%d hits=%d",
				r.Flows(), r.Evicted(), r.BudgetHits())
		}
	}
}

// TestReorderTrackerCapEvictsFIFO: past the budget the tracker holds at
// most its witness's capacity of flows. Fresh flows that depart once
// each are all recent to the witness, so it evicts them oldest first.
func TestReorderTrackerCapEvictsFIFO(t *testing.T) {
	const budget, flows = 4, 100
	r := NewTracker(TrackerConfig{FlowBudget: budget})
	for i := uint32(0); i < flows; i++ {
		if ooo := r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0}); ooo {
			t.Fatalf("fresh flow %d reported out of order", i)
		}
	}
	capacity := witnessCap(budget)
	if r.BudgetHits() != 1 || r.Level() != 0 {
		t.Fatalf("BudgetHits=%d Level=%d, want 1 and 0", r.BudgetHits(), r.Level())
	}
	if r.Flows() != capacity {
		t.Fatalf("Flows = %d, want the witness's capacity %d", r.Flows(), capacity)
	}
	if want := uint64(flows - capacity); r.Evicted() != want {
		t.Fatalf("Evicted = %d, want %d", r.Evicted(), want)
	}
	// The survivors are the newest (FIFO eviction): an old packet of an
	// evicted flow is treated as a fresh flow, not a reordering.
	if ooo := r.Record(&packet.Packet{Flow: flowN(0), FlowSeq: 0}); ooo {
		t.Fatal("evicted flow's packet misreported as out of order")
	}
	// A still-tracked flow keeps exact detection.
	r.Record(&packet.Packet{Flow: flowN(flows - 1), FlowSeq: 5})
	if ooo := r.Record(&packet.Packet{Flow: flowN(flows - 1), FlowSeq: 2}); !ooo {
		t.Fatal("tracked flow's reordering missed")
	}
}

func TestReorderTrackerCapRereferenceDoesNotEvict(t *testing.T) {
	// Re-recording a tracked flow must not count as a new flow against
	// the budget: two flows under a budget of two stay exact.
	r := NewTracker(TrackerConfig{FlowBudget: 2})
	a, b := flowN(1), flowN(2)
	for seq := uint64(0); seq < 50; seq++ {
		r.Record(&packet.Packet{Flow: a, FlowSeq: seq})
		r.Record(&packet.Packet{Flow: b, FlowSeq: seq})
	}
	if r.Evicted() != 0 || r.BudgetHits() != 0 || r.Flows() != 2 {
		t.Fatalf("steady two-flow traffic under budget 2: evicted=%d hits=%d flows=%d, want 0, 0, 2",
			r.Evicted(), r.BudgetHits(), r.Flows())
	}
	if r.OutOfOrder() != 0 {
		t.Fatalf("in-order traffic counted %d OOO", r.OutOfOrder())
	}
}

func TestReorderTrackerResetKeepsCap(t *testing.T) {
	r := NewTracker(TrackerConfig{FlowBudget: 2})
	for i := uint32(0); i < 5; i++ {
		r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
	}
	if r.BudgetHits() != 1 {
		t.Fatalf("5 flows under budget 2: BudgetHits=%d, want 1", r.BudgetHits())
	}
	r.Reset()
	if r.Flows() != 0 || r.Evicted() != 0 || r.OutOfOrder() != 0 || r.BudgetHits() != 0 || r.sampling {
		t.Fatalf("Reset left state behind: %d flows, %d evicted, %d ooo, %d hits, sampling=%v",
			r.Flows(), r.Evicted(), r.OutOfOrder(), r.BudgetHits(), r.sampling)
	}
	for i := uint32(100); i < 105; i++ {
		r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
	}
	if r.BudgetHits() != 1 || r.Flows() > witnessCap(2) {
		t.Fatalf("budget lost across Reset: BudgetHits=%d, %d flows tracked", r.BudgetHits(), r.Flows())
	}
}
