package runtime

import (
	"context"
	stdrt "runtime"
	"testing"

	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/traffic"
)

// TestScaleSmokeMillionFlowChurn is the scale acceptance smoke (CI job
// scale-smoke): over a million distinct short flows stream through the
// engine under a FlowBudget with MemorySketch, and the assertions are
// the halves of the budget contract — per-flow state must not grow with
// the distinct-flow count (heap delta bounded), the sampled witness
// raises no false alarm (the hash scheduler never migrates, so any
// flagged departure would be one), and its level is set by the flows
// live at once, not by the flows seen: the same at 2^20 packets as at
// the end, a million flows later (docs/SCALE.md).
func TestScaleSmokeMillionFlowChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-packet run")
	}
	src := traffic.NewChurn(traffic.ChurnConfig{
		Name:        "scale-smoke",
		Concurrent:  1 << 14,
		MeanPackets: 3,
		Seed:        1,
	})

	var before, after stdrt.MemStats
	stdrt.GC()
	stdrt.ReadMemStats(&before)

	e, err := New(Config{
		Workers:    4,
		RingCap:    256,
		Batch:      32,
		Sched:      hashSched{n: 4},
		Policy:     BlockWhenFull,
		FlowBudget: 1 << 16,
		Memory:     npsim.MemorySketch,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	const total, early = 3_500_000, 1 << 20
	var earlyLevel int
	var flows uint64 // distinct flows visited: each starts at FlowSeq 0
	for i := 0; i < total; i++ {
		if i == early {
			earlyLevel = e.tracker.totals().level
		}
		rec, seq, _ := src.NextSeq()
		if seq == 0 {
			flows++
		}
		e.Dispatch(&packet.Packet{
			ID:      uint64(i + 1),
			Flow:    rec.Flow,
			Service: packet.ServiceID(i & 3),
			Size:    rec.Size,
			Arrival: e.Now(),
			FlowSeq: seq,
		})
	}
	res := e.Stop()

	stdrt.GC()
	stdrt.ReadMemStats(&after)

	if res.Processed+res.Dropped != res.Dispatched {
		t.Fatalf("conservation violated: %d+%d != %d", res.Processed, res.Dropped, res.Dispatched)
	}
	if res.Dropped != 0 {
		t.Fatalf("block-mode smoke dropped %d packets", res.Dropped)
	}
	if flows < 1_000_000 {
		t.Fatalf("churn visited only %d distinct flows, want >= 1e6", flows)
	}
	// Retained-heap growth: the witness (32 × 128 flows at this budget)
	// plus the fence table, which the rings bound in every mode. An exact
	// tracker retains one watermark per distinct flow, 1.4 M of them in
	// this run, so the 48 MB ceiling separates the regimes.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 48<<20 {
		t.Fatalf("heap grew %d MB over a budgeted run, want < 48 MB", growth>>20)
	}
	if res.EstimatedOOO != 0 || res.OutOfOrder != 0 {
		t.Fatalf("in-order churn: EstimatedOOO=%d OutOfOrder=%d, want 0", res.EstimatedOOO, res.OutOfOrder)
	}
	if earlyLevel == 0 || res.WitnessLevel != earlyLevel {
		t.Fatalf("witness level %d at %d packets, %d at the end: want one nonzero level throughout",
			earlyLevel, early, res.WitnessLevel)
	}
	t.Logf("scale-smoke: flows=%d processed=%d heap-growth=%dMB witness-level=%d tracked=%d evicted=%d",
		flows, res.Processed, growth>>20, res.WitnessLevel, res.TrackedFlows, res.EvictedFlows)
}
