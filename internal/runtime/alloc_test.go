//go:build !race

// Zero-allocation regression guard for the live dispatch path. Excluded
// under the race detector: its instrumentation allocates on its own,
// which would fail this pin spuriously (the -race CI lane still runs
// every functional test in this package).

package runtime

import (
	"testing"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
)

// TestDispatchZeroAllocSteadyState pins the tentpole contract on every
// owner: with a packet pool wired in and the flow tables warmed, the
// full live cycle — pool Get, prime, the per-packet entry (Dispatch,
// Ingest), fence lookup, ring hand-off, worker retirement, reorder
// tracking, pool Put — allocates nothing per packet. WorkNone isolates
// the data path itself. The telemetry subtest re-runs the pin with event
// recording and the full histogram set enabled: Record and Emit must
// stay allocation-free too.
func TestDispatchZeroAllocSteadyState(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		each(t, owners, func(t *testing.T, o owner) { testDispatchZeroAlloc(t, o, false) })
	})
	t.Run("telemetry", func(t *testing.T) {
		each(t, owners, func(t *testing.T, o owner) { testDispatchZeroAlloc(t, o, true) })
	})
}

func testDispatchZeroAlloc(t *testing.T, o owner, instrumented bool) {
	pool := packet.NewPool()
	cfg := Config{
		Workers: 2,
		RingCap: 1024,
		Batch:   64,
		Sched:   pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}),
		Policy:  BlockWhenFull,
		Pool:    pool,
	}
	if instrumented {
		cfg.Recorder = obs.NewRecorder(0)
		cfg.Telemetry = telemetry.NewRegistry()
	}
	r := o.start(t, cfg)

	const flows = 512
	var keys [flows]packet.FlowKey
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: 17}
	}
	var seqs [flows]uint64
	var id uint64
	next := 0
	cycle := func() {
		i := next % flows
		next++
		p := pool.Get()
		id++
		p.ID = id
		p.Flow = keys[i]
		p.Size = 256
		p.FlowSeq = seqs[i]
		seqs[i]++
		crc.Prime(p) // ingress hash point, as the generator does it
		r.offer(p)
	}
	// Warm up: grow the flow tables and ring stages to the working set.
	for i := 0; i < 20000; i++ {
		cycle()
	}
	// Seed the pool past the maximum possible in-flight population so a
	// transient producer/consumer imbalance never forces Pool.Get to
	// allocate mid-measurement.
	for i := 0; i < 8192; i++ {
		pool.Put(new(packet.Packet))
	}

	avg := testing.AllocsPerRun(5000, cycle)

	r.flush()
	res := r.stop()
	if res.Dropped != 0 {
		t.Fatalf("BlockWhenFull run dropped %d packets", res.Dropped)
	}
	if avg != 0 {
		t.Fatalf("live per-packet steady state allocates %.3f per packet, want 0", avg)
	}
	if instrumented {
		if n := cfg.Telemetry.Snapshot()["laps_packet_latency_seconds"].(map[string]any)["count"].(uint64); n == 0 {
			t.Fatal("telemetry enabled but no latency samples recorded")
		}
	}
}

// TestDispatchBurstZeroAlloc pins the burst path's allocation contract
// on every owner: grouping a 64-packet burst by flow (on Sharded, first
// partitioning it across shards with batched ring reservations),
// resolving each group once, staging whole runs and flushing allocates
// nothing per burst once warm — the scratch tables are owner-owned and
// the flow groups reuse the chunk-sized arrays.
func TestDispatchBurstZeroAlloc(t *testing.T) { each(t, engineRow, burstZeroAlloc) }
func TestIngestBurstZeroAlloc(t *testing.T)   { each(t, shardedRows, burstZeroAlloc) }

func burstZeroAlloc(t *testing.T, o owner) {
	pool := packet.NewPool()
	r := o.start(t, Config{
		Workers: 2,
		RingCap: 1024,
		Batch:   64,
		Sched:   pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}),
		Policy:  BlockWhenFull,
		Pool:    pool,
	})

	const flows, burst = 512, 64
	var keys [flows]packet.FlowKey
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: 17}
	}
	var seqs [flows]uint64
	var id uint64
	next := 0
	buf := make([]*packet.Packet, burst)
	cycle := func() {
		for i := range buf {
			k := next % flows
			next++
			p := pool.Get()
			id++
			p.ID = id
			p.Flow = keys[k]
			p.Size = 256
			p.FlowSeq = seqs[k]
			seqs[k]++
			crc.Prime(p)
			buf[i] = p
		}
		r.burst(buf)
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	for i := 0; i < 8192; i++ {
		pool.Put(new(packet.Packet))
	}

	avg := testing.AllocsPerRun(2000, cycle)

	res := r.stop()
	if res.Dropped != 0 {
		t.Fatalf("BlockWhenFull run dropped %d packets", res.Dropped)
	}
	if avg != 0 {
		t.Fatalf("burst steady state allocates %.3f per burst, want 0", avg)
	}
}
