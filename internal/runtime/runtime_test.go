package runtime

import (
	"context"
	stdrt "runtime"
	"testing"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/trace"
)

// hashSched pins every flow to its hash bucket — never migrates.
type hashSched struct{ n int }

func (h hashSched) Name() string { return "hash" }
func (h hashSched) Target(p *packet.Packet, _ npsim.View) int {
	return int(crc.FlowHash(p.Flow)) % h.n
}

// flapSched deliberately re-homes every flow each period packets — a
// migration storm that would shred ordering without fencing.
type flapSched struct {
	n, period int
	count     int
}

func (f *flapSched) Name() string { return "flap" }
func (f *flapSched) Target(p *packet.Packet, _ npsim.View) int {
	f.count++
	return (int(crc.FlowHash(p.Flow)) + f.count/f.period) % f.n
}

// feedYield bounds how long a feed loop runs between scheduler yields.
// On a single-CPU host a tight dispatch loop can otherwise monopolize
// the processor until preemption, filling every ring before a worker
// gets a slice — in drop mode that starves the migration/fence paths
// the storm tests exist to exercise (a migration is only counted when
// the migrated push lands, so a fully-saturated run can report zero).
const feedYield = 64

// feed generates n packets over the given services with correct
// per-flow sequence numbers, dispatching each one.
func feed(tb testing.TB, e *Engine, n int, services int, seed uint64) {
	tb.Helper()
	srcs := make([]trace.Source, services)
	for s := range srcs {
		srcs[s] = trace.NewSynthetic(trace.SynthConfig{
			Name: "rt", Flows: 500, Skew: 1.1, Seed: seed + uint64(s)*977,
		})
	}
	seqs := make(map[packet.FlowKey]uint64, 4096)
	for i := 0; i < n; i++ {
		svc := packet.ServiceID(i % services)
		rec, _ := srcs[svc].Next()
		p := &packet.Packet{
			ID:      uint64(i + 1),
			Flow:    rec.Flow,
			Service: svc,
			Size:    rec.Size,
			Arrival: e.Now(),
			FlowSeq: seqs[rec.Flow],
		}
		seqs[rec.Flow]++
		e.Dispatch(p)
		if i%feedYield == feedYield-1 {
			stdrt.Gosched()
		}
	}
}

func checkConservation(t *testing.T, res *Result) {
	t.Helper()
	if res.Processed+res.Dropped != res.Dispatched {
		t.Fatalf("conservation violated: processed %d + dropped %d != dispatched %d",
			res.Processed, res.Dropped, res.Dispatched)
	}
	var perW uint64
	for _, w := range res.Workers {
		perW += w.Processed
	}
	if perW != res.Processed {
		t.Fatalf("per-worker sum %d != processed %d", perW, res.Processed)
	}
}

// TestStressFencedOrdering is the tier-1 stress test: >= 4 workers,
// >= 100k packets, a migration-storm scheduler, run under -race in CI.
// With fencing on, the ordering invariant is absolute: zero out-of-order
// departures, no matter how the goroutines interleave.
func TestStressFencedOrdering(t *testing.T) {
	e, err := New(Config{
		Workers: 4,
		RingCap: 64,
		Batch:   16,
		Sched:   &flapSched{n: 4, period: 700},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if res.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
	}
	if res.Processed == 0 {
		t.Fatal("nothing processed")
	}
	t.Logf("dispatched=%d processed=%d dropped=%d migrations=%d fenced=%d",
		res.Dispatched, res.Processed, res.Dropped, res.Migrations, res.Fenced)
}

// TestStressUnfenced runs the same storm without fencing. Reordering is
// then possible (and usually observed); the test asserts only that the
// accounting stays consistent — the OOO count is workload evidence, not
// an invariant.
func TestStressUnfenced(t *testing.T) {
	e, err := New(Config{
		Workers:        4,
		RingCap:        64,
		Batch:          16,
		Sched:          &flapSched{n: 4, period: 700},
		DisableFencing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)
	if res.Fenced != 0 {
		t.Fatalf("unfenced run reported %d fenced packets", res.Fenced)
	}
	t.Logf("unfenced: migrations=%d ooo=%d", res.Migrations, res.OutOfOrder)
}

// TestLAPSLive drives the real LAPS scheduler on live workers.
func TestLAPSLive(t *testing.T) {
	l := core.New(core.Config{
		TotalCores: 4,
		Services:   2,
		AFD:        afd.Config{Seed: 7},
	})
	e, err := New(Config{Workers: 4, RingCap: 64, Batch: 8, Sched: l})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 60000, 2, 7)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("LAPS live run reordered %d packets despite fencing", res.OutOfOrder)
	}
}

func TestBackpressureBlockDropsNothing(t *testing.T) {
	e, err := New(Config{
		Workers:    2,
		RingCap:    8,
		Batch:      4,
		Sched:      hashSched{n: 2},
		Policy:     BlockWhenFull,
		Work:       WorkSleep, // slow workers so the rings actually fill
		WorkFactor: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 5000, 1, 3)
	res := e.Stop()
	checkConservation(t, res)
	if res.Dropped != 0 {
		t.Fatalf("block policy dropped %d packets", res.Dropped)
	}
	if res.Processed != res.Dispatched {
		t.Fatalf("processed %d != dispatched %d", res.Processed, res.Dispatched)
	}
}

func TestDropPolicyCountsDrops(t *testing.T) {
	e, err := New(Config{
		Workers:    1,
		RingCap:    2,
		Batch:      2,
		Sched:      hashSched{n: 1},
		Work:       WorkSleep,
		WorkFactor: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 3000, 1, 5)
	res := e.Stop()
	checkConservation(t, res)
	if res.Dropped == 0 {
		t.Fatal("tiny ring with slow worker dropped nothing")
	}
	if res.Workers[0].Dropped != res.Dropped {
		t.Fatalf("per-worker drops %d != total %d", res.Workers[0].Dropped, res.Dropped)
	}
}

// TestContextCancelUnblocks: a cancelled context converts blocking
// enqueues into drops so Stop always completes.
func TestContextCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(Config{
		Workers:    1,
		RingCap:    2,
		Batch:      2,
		Sched:      hashSched{n: 1},
		Policy:     BlockWhenFull,
		Work:       WorkSleep,
		WorkFactor: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(ctx)
	done := make(chan *Result, 1)
	go func() {
		// Not the dispatcher: cancel after a short delay.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	go func() {
		feed(t, e, 2000, 1, 9)
		done <- e.Stop()
	}()
	select {
	case res := <-done:
		checkConservation(t, res)
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not finish")
	}
}

// TestTelemetryWiring checks the recorder and sampler integration:
// drops and reorders land in the shared recorder, probes produce a
// series with one column per worker signal.
func TestTelemetryWiring(t *testing.T) {
	rec := obs.NewRecorder(4096)
	e, err := New(Config{
		Workers:         2,
		RingCap:         4,
		Batch:           2,
		Sched:           &flapSched{n: 2, period: 50},
		DisableFencing:  true, // invite reordering so EvOOODepart fires
		Work:            WorkSleep,
		WorkFactor:      0.05,
		Recorder:        rec,
		MetricsInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 4000, 1, 11)
	time.Sleep(3 * time.Millisecond) // let the sampler tick at least once
	res := e.Stop()
	checkConservation(t, res)
	if res.Series == nil || res.Series.Len() == 0 {
		t.Fatal("metrics interval set but no series sampled")
	}
	if res.Dropped > 0 && rec.Count(obs.EvDrop) == 0 {
		t.Fatal("drops occurred but no EvDrop recorded")
	}
	if res.OutOfOrder > 0 && rec.Count(obs.EvOOODepart) != res.OutOfOrder {
		t.Fatalf("recorder has %d EvOOODepart, result says %d",
			rec.Count(obs.EvOOODepart), res.OutOfOrder)
	}
	// Merged worker events must be timestamp-ordered.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d out of timestamp order after merge", i)
		}
	}
}

// TestBoundedReorderState exercises the capped egress tracker under
// heavy flow churn: memory stays bounded, accounting stays consistent.
func TestBoundedReorderState(t *testing.T) {
	e, err := New(Config{
		Workers:    2,
		RingCap:    64,
		Batch:      8,
		Sched:      hashSched{n: 2},
		FlowBudget: 64,
		Memory:     npsim.MemoryExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	// High-churn trace: far more distinct flows than the cap.
	src := trace.NewSynthetic(trace.SynthConfig{
		Name: "churn", Flows: 2000, Skew: 1.05, Churn: 0.5, Seed: 13,
	})
	seqs := make(map[packet.FlowKey]uint64)
	for i := 0; i < 30000; i++ {
		rec, _ := src.Next()
		p := &packet.Packet{ID: uint64(i + 1), Flow: rec.Flow, Size: rec.Size,
			FlowSeq: seqs[rec.Flow]}
		seqs[rec.Flow]++
		e.Dispatch(p)
	}
	res := e.Stop()
	checkConservation(t, res)
	if res.TrackedFlows > 64+reorderShards {
		t.Fatalf("tracker holds %d flows, cap was 64", res.TrackedFlows)
	}
	if res.EvictedFlows == 0 {
		t.Fatal("churny workload evicted nothing; cap not enforced")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0, Sched: hashSched{n: 1}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := New(Config{Workers: 1}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}
