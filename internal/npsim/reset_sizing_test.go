package npsim

import (
	"runtime"
	"testing"

	"laps/internal/packet"
)

// TestResetKeepsBoundedSizing: Reset on a budgeted tracker must reuse
// the constructor's clamped table hint, not reallocate the 1<<14
// unbounded-default table a budget-64 tracker never fills, and must
// keep the budget.
func TestResetKeepsBoundedSizing(t *testing.T) {
	tr := NewTracker(TrackerConfig{FlowBudget: 64})
	for i := 0; i < 200; i++ {
		tr.Record(&packet.Packet{Flow: packet.FlowKey{SrcIP: uint32(i)}, FlowSeq: 0})
	}
	tr.Reset()
	if tr.Flows() != 0 || tr.OutOfOrder() != 0 || tr.Evicted() != 0 {
		t.Fatal("Reset did not clear state")
	}
	// The budget must survive the reset.
	for i := 0; i < 200; i++ {
		tr.Record(&packet.Packet{Flow: packet.FlowKey{SrcIP: uint32(i)}, FlowSeq: 0})
	}
	if tr.BudgetHits() != 1 {
		t.Fatal("200 flows after Reset never crossed the 64-flow budget")
	}
	if tr.Flows() > witnessCap(64) {
		t.Fatalf("budget not enforced after Reset: %d flows", tr.Flows())
	}

	// Allocation guard: a 1<<14-hint map costs hundreds of KB per Reset;
	// the clamped budget-64 hint costs a few KB. TotalAlloc is monotonic, so
	// GC cannot hide the difference.
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		tr.Reset()
	}
	runtime.ReadMemStats(&after)
	perReset := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perReset > 64<<10 {
		t.Fatalf("Reset allocates %d bytes on a budget-64 tracker; clamped hint ignored", perReset)
	}
}
