package runtime

import (
	"context"
	"fmt"
	stdrt "runtime"
	"testing"

	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/traffic"
)

// BenchmarkScaleChurn sweeps flow-state memory (docs/SCALE.md): one run
// per (memory regime, distinct-flow count) cell, streaming a churn
// workload through the engine until the source has visited the target
// number of distinct flows. Each cell reports throughput (pps) and the
// retained-heap delta after a final GC (heap-MB) — the max-RSS proxy
// that separates exact per-flow state (grows with flows visited) from
// the budgeted witness (flat). Run with -benchtime 1x: a cell is one
// complete run, and iterating it would only re-measure a warm heap.
func BenchmarkScaleChurn(b *testing.B) {
	for _, mode := range []struct {
		name   string
		budget int
		mem    npsim.MemoryClass
	}{
		{"exact", 0, npsim.MemoryAuto},
		{"sketch", 1 << 16, npsim.MemorySketch},
	} {
		for _, flows := range []uint64{10_000, 100_000, 1_000_000, 10_000_000} {
			b.Run(fmt.Sprintf("%s/flows=%d", mode.name, flows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runScaleCell(b, mode.budget, mode.mem, flows)
				}
			})
		}
	}
}

func runScaleCell(b *testing.B, budget int, mem npsim.MemoryClass, flows uint64) {
	concurrent := int(flows / 4)
	if concurrent > 1<<16 {
		concurrent = 1 << 16
	}
	if concurrent < 1<<10 {
		concurrent = 1 << 10
	}
	src := traffic.NewChurn(traffic.ChurnConfig{
		Name:        "scale-bench",
		Concurrent:  concurrent,
		MeanPackets: 3,
		Seed:        uint64(flows),
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
		FlowBudget: budget,
		Memory:     mem,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.Start(context.Background())
	b.ResetTimer()
	var sent, started uint64
	for started < flows {
		rec, seq, _ := src.NextSeq()
		if seq == 0 {
			started++
		}
		sent++
		e.Dispatch(&packet.Packet{
			ID:      sent,
			Flow:    rec.Flow,
			Service: packet.ServiceID(sent & 3),
			Size:    rec.Size,
			Arrival: e.Now(),
			FlowSeq: seq,
		})
	}
	res := e.Stop()
	b.StopTimer()

	stdrt.GC()
	stdrt.ReadMemStats(&after)
	// The engine must stay reachable until after the measurement: its
	// last use above is Stop(), so without this the final GC is free to
	// collect the very tables the heap delta is supposed to capture.
	stdrt.KeepAlive(e)
	growth := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	if growth < 0 {
		growth = 0
	}
	b.ReportMetric(float64(res.Processed)/b.Elapsed().Seconds(), "pps")
	b.ReportMetric(growth, "heap-MB")
	b.ReportMetric(float64(res.OutOfOrder), "est-ooo")
	if res.Dropped != 0 {
		b.Fatalf("block-mode bench dropped %d packets", res.Dropped)
	}
}
