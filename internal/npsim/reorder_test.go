package npsim

import (
	"testing"

	"laps/internal/packet"
)

func flowN(n uint32) packet.FlowKey {
	return packet.FlowKey{SrcIP: n, DstIP: ^n}
}

func TestReorderTrackerUnboundedDefault(t *testing.T) {
	for _, r := range []*ReorderTracker{NewTracker(TrackerConfig{}), NewTracker(TrackerConfig{Memory: MemoryExact})} {
		for i := uint32(0); i < 100; i++ {
			r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
		}
		if r.Flows() != 100 || r.Evicted() != 0 {
			t.Fatalf("unbounded tracker evicted: flows=%d evicted=%d", r.Flows(), r.Evicted())
		}
	}
}

func TestReorderTrackerCapEvictsFIFO(t *testing.T) {
	r := NewTracker(TrackerConfig{FlowBudget: 4, Memory: MemoryExact})
	for i := uint32(0); i < 10; i++ {
		if ooo := r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0}); ooo {
			t.Fatalf("fresh flow %d reported out of order", i)
		}
	}
	if r.Flows() != 4 {
		t.Fatalf("Flows = %d, want cap 4", r.Flows())
	}
	if r.Evicted() != 6 {
		t.Fatalf("Evicted = %d, want 6", r.Evicted())
	}
	// The survivors are the newest four (FIFO eviction): an old packet of
	// an evicted flow is treated as a fresh flow, not a reordering.
	if ooo := r.Record(&packet.Packet{Flow: flowN(0), FlowSeq: 0}); ooo {
		t.Fatal("evicted flow's packet misreported as out of order")
	}
	// A still-tracked flow keeps exact detection.
	r.Record(&packet.Packet{Flow: flowN(9), FlowSeq: 5})
	if ooo := r.Record(&packet.Packet{Flow: flowN(9), FlowSeq: 2}); !ooo {
		t.Fatal("tracked flow's reordering missed")
	}
}

func TestReorderTrackerCapRereferenceDoesNotEvict(t *testing.T) {
	// Re-recording a tracked flow must not count as a new insertion.
	r := NewTracker(TrackerConfig{FlowBudget: 2, Memory: MemoryExact})
	a, b := flowN(1), flowN(2)
	for seq := uint64(0); seq < 50; seq++ {
		r.Record(&packet.Packet{Flow: a, FlowSeq: seq})
		r.Record(&packet.Packet{Flow: b, FlowSeq: seq})
	}
	if r.Evicted() != 0 {
		t.Fatalf("steady two-flow traffic evicted %d under cap 2", r.Evicted())
	}
	if r.OutOfOrder() != 0 {
		t.Fatalf("in-order traffic counted %d OOO", r.OutOfOrder())
	}
}

func TestReorderTrackerCapCompaction(t *testing.T) {
	// Push enough churn through a small cap to force the FIFO's
	// amortised compaction path (head > 1024).
	r := NewTracker(TrackerConfig{FlowBudget: 64, Memory: MemoryExact})
	const flows = 8000
	for i := uint32(0); i < flows; i++ {
		r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
	}
	if r.Flows() != 64 {
		t.Fatalf("Flows = %d, want 64", r.Flows())
	}
	if want := uint64(flows - 64); r.Evicted() != want {
		t.Fatalf("Evicted = %d, want %d", r.Evicted(), want)
	}
	if r.Delivered() != flows {
		t.Fatalf("Delivered = %d, want %d", r.Delivered(), flows)
	}
}

func TestReorderTrackerResetKeepsCap(t *testing.T) {
	r := NewTracker(TrackerConfig{FlowBudget: 2, Memory: MemoryExact})
	for i := uint32(0); i < 5; i++ {
		r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
	}
	r.Reset()
	if r.Flows() != 0 || r.Evicted() != 0 || r.Delivered() != 0 {
		t.Fatalf("Reset left state behind: %d flows, %d evicted", r.Flows(), r.Evicted())
	}
	for i := uint32(100); i < 105; i++ {
		r.Record(&packet.Packet{Flow: flowN(i), FlowSeq: 0})
	}
	if r.Flows() != 2 {
		t.Fatalf("cap lost across Reset: %d flows tracked", r.Flows())
	}
}
