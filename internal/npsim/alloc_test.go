//go:build !race

// Zero-allocation regression guards for the simulator's per-packet
// path. Excluded under the race detector: its instrumentation inserts
// heap allocations of its own, which would fail these pins spuriously.

package npsim

import (
	"testing"

	"laps/internal/crc"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// allocSched routes by the packet's cached hash — the cheapest real
// scheduler shape, so the measurement isolates the simulator itself.
type allocSched struct{ n int }

func (a allocSched) Name() string                        { return "alloc-hash" }
func (a allocSched) Target(p *packet.Packet, _ View) int { return int(crc.PacketHash(p)) % a.n }

// TestInjectZeroAllocSteadyState pins the hot-path contract: once the
// flow tables and the event heap have grown to the working set, the
// full Inject → enqueue → process → complete → reorder-track cycle
// performs zero heap allocations per packet. The recording subtest
// re-runs the pin with a telemetry recorder attached: Emit writes into
// a pre-allocated ring and must not change the answer.
func TestInjectZeroAllocSteadyState(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testInjectZeroAlloc(t, false) })
	t.Run("recording", func(t *testing.T) { testInjectZeroAlloc(t, true) })
}

func testInjectZeroAlloc(t *testing.T, recording bool) {
	eng := sim.NewEngine()
	sys := New(eng, Config{
		NumCores:  4,
		QueueCap:  64,
		FMPenalty: 800,
		CCPenalty: 10000,
		Services:  DefaultServices(),
	}, allocSched{n: 4})
	if recording {
		sys.SetRecorder(obs.NewRecorder(0))
	}

	const flows = 256
	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			ID:   uint64(i + 1),
			Flow: packet.FlowKey{SrcIP: uint32(i), DstIP: 0xbeef, SrcPort: 443, DstPort: uint16(i), Proto: 6},
			Size: 256,
		}
	}
	var seq [flows]uint64
	next := 0
	cycle := func() {
		p := pkts[next%flows]
		p.FlowSeq = seq[next%flows]
		seq[next%flows]++
		p.Arrival = eng.Now()
		p.Migrated = false
		next++
		sys.Inject(p)
		eng.Run() // drain: completion events retire the packet
	}
	// Warm up: size the flow tables, the event heap and the histograms.
	for i := 0; i < 4*flows; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("Inject steady state allocates %.3f per packet, want 0", avg)
	}
}

// TestWitnessRecordZeroAlloc pins the record path past the flow budget:
// inserts, evictions and level raises reuse the witness's fixed table
// and queues.
func TestWitnessRecordZeroAlloc(t *testing.T) {
	r, step := witnessChurn()
	for range 1 << 16 {
		step()
	}
	if avg := testing.AllocsPerRun(1<<14, step); avg != 0 {
		t.Fatalf("witness record allocates %.3f per packet, want 0", avg)
	}
	if r.Level() == 0 {
		t.Fatal("churn left the witness at level 0: the pin did not cover the sampled path")
	}
}
