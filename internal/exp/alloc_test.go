//go:build !race

// Excluded under the race detector, whose instrumentation allocates on
// its own.

package exp

import (
	"testing"

	"laps/internal/sim"
)

// TestSimulateZeroAllocSteadyState pins the simulator's whole per-packet
// path — trace record, generator arrival, Inject, queueing or drop,
// completion, reorder tracking, descriptor return — at zero allocations
// once the free list, the event heap and the flow tables have grown to
// the working set. The source is T5's CAIDA-like group at 115 % load,
// so both the drop and the departure return paths run. Each measured
// slice is 100 µs of simulated time, some 500 packets; AllocsPerRun
// truncates to whole allocations per slice, which leaves room for a
// flow table doubling in the window and none for a per-packet cost.
func TestSimulateZeroAllocSteadyState(t *testing.T) {
	opts := tinyOpts()
	opts.Duration = 200 * sim.Millisecond
	sc := Scenarios()[4]
	scheduler, cfg := buildScheduler(KindLAPS, opts, len(sc.Params), 0)
	sys, gen := NewSim(cfg, scheduler, sc.traffic(opts))
	gen.Start()
	eng := sys.Engine()
	now := 40 * sim.Millisecond
	eng.RunUntil(now) // warm-up
	before := *sys.Metrics()
	const slices = 200
	avg := testing.AllocsPerRun(slices, func() {
		now += 100 * sim.Microsecond
		eng.RunUntil(now)
	})
	m := sys.Metrics()
	pkts := m.Injected - before.Injected
	if pkts < 100*slices || m.Dropped == before.Dropped || m.Completed == before.Completed {
		t.Fatalf("measured window too quiet: %d injected, %d dropped, %d completed",
			pkts, m.Dropped-before.Dropped, m.Completed-before.Completed)
	}
	if avg != 0 {
		t.Fatalf("simulator steady state allocates %.0f per 100µs slice (%d packets in %d slices), want 0",
			avg, pkts, slices+1)
	}
}
