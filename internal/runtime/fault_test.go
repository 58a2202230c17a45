package runtime

import (
	"context"
	"testing"
	"time"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

func fkey(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstIP: 0xfeed, SrcPort: uint16(i), DstPort: 99, Proto: 6}
}

// TestChaosFaultRecovery is the acceptance chaos run: seeded stalls on
// two workers plus one kill mid-run, under Block policy so nothing may
// legitimately drop. The invariants are absolute regardless of
// interleaving (this test runs under -race in CI):
//
//   - zero out-of-order departures — recovery re-injects stranded
//     backlogs in arrival order and re-points the fences;
//   - every packet accounted: completed + dropped == dispatched, with
//     dropped == 0 in Block mode (no stranding);
//   - the faults are detected and recovered within the configured
//     window (plus monitor cadence slack).
//
// On Sharded each shard drains its own ring of every quarantined worker.
func TestChaosFaultRecovery(t *testing.T)   { each(t, engineRow, chaosFaultRecovery) }
func TestShardedChaosRecovery(t *testing.T) { each(t, shardedRows, chaosFaultRecovery) }

func chaosFaultRecovery(t *testing.T, o owner) {
	const window = 80 * time.Millisecond
	plan := &FaultPlan{Faults: []Fault{
		{Worker: 1, After: 1500, Kind: FaultStall, Duration: 800 * time.Millisecond},
		{Worker: 2, After: 2500, Kind: FaultStall, Duration: 800 * time.Millisecond},
		{Worker: 3, After: 2000, Kind: FaultKill},
	}}
	rec := obs.NewRecorder(1 << 14)
	r := o.start(t, Config{
		Workers:      4,
		RingCap:      64,
		Batch:        16,
		Sched:        pick[npsim.Scheduler](o, hashSched{n: 4}, snapHash{n: 4}),
		Policy:       BlockWhenFull,
		Faults:       plan,
		DetectWindow: window,
		Recorder:     rec,
	})
	feed(t, r.offer, r.Now, 60000, 2, 42)
	res := r.stop()
	checkConservation(t, res)
	if res.Dropped != 0 {
		t.Fatalf("block-mode chaos run dropped %d packets (stranded %d)", res.Dropped, res.Stranded)
	}
	if res.OutOfOrder != 0 {
		t.Fatalf("recovery reordered %d packets", res.OutOfOrder)
	}
	if res.WorkerDeaths < 2 {
		t.Fatalf("expected at least the kill and one stall quarantine, got %d deaths", res.WorkerDeaths)
	}
	if res.WorkerStalls == 0 {
		t.Fatal("no stall detection despite two over-window stalls with backlog")
	}
	if !res.Workers[3].Dead {
		t.Fatal("killed worker 3 not marked dead")
	}
	if res.Reinjected == 0 || res.Recovered == 0 {
		t.Fatalf("recovery moved nothing: reinjected=%d recovered flows=%d",
			res.Reinjected, res.Recovered)
	}
	if res.Forced != 0 {
		t.Fatalf("%d forced fence releases; every fault here is seizable", res.Forced)
	}
	if res.MaxDetect <= 0 || res.MaxDetect > 3*window {
		t.Fatalf("detection latency %v outside (0, %v]", res.MaxDetect, 3*window)
	}
	if rec.Count(obs.EvWorkerDead) != res.WorkerDeaths {
		t.Fatalf("recorder has %d EvWorkerDead, result says %d",
			rec.Count(obs.EvWorkerDead), res.WorkerDeaths)
	}
	if drains := res.WorkerDeaths * uint64(len(r.lanes)); rec.Count(obs.EvRecovery) != drains {
		t.Fatalf("every lane drains every quarantined worker once; got %d EvRecovery for %d deaths on %d lanes",
			rec.Count(obs.EvRecovery), res.WorkerDeaths, len(r.lanes))
	}
	t.Logf("chaos: deaths=%d stalls=%d reinjected=%d flows=%d maxDetect=%v",
		res.WorkerDeaths, res.WorkerStalls, res.Reinjected, res.Recovered, res.MaxDetect)
}

// TestChaosRandomPlan replays a seeded random plan — the same invariants
// must hold for fault schedules nobody hand-tuned.
func TestChaosRandomPlan(t *testing.T) {
	each(t, owners, func(t *testing.T, o owner) {
		for _, seed := range []uint64{0xC0FFEE, 9} {
			plan := RandomFaultPlan(seed, 4, 2, 1, 2500, 600*time.Millisecond)
			r := o.start(t, Config{
				Workers:      4,
				RingCap:      64,
				Batch:        16,
				Sched:        pick[npsim.Scheduler](o, hashSched{n: 4}, snapHash{n: 4}),
				Policy:       BlockWhenFull,
				Faults:       plan,
				DetectWindow: 80 * time.Millisecond,
			})
			feed(t, r.offer, r.Now, 40000, 2, seed)
			res := r.stop()
			checkConservation(t, res)
			if res.Dropped != 0 {
				t.Fatalf("seed %#x: dropped %d in block mode", seed, res.Dropped)
			}
			if res.OutOfOrder != 0 {
				t.Fatalf("seed %#x: %d out-of-order departures", seed, res.OutOfOrder)
			}
			if res.WorkerDeaths == 0 {
				t.Fatalf("seed %#x: plan with a kill produced no deaths", seed)
			}
		}
	})
}

// TestKillWithoutMonitor: with DetectWindow 0 the health monitor is off,
// but a crashed worker is still reaped lazily — when the lane next
// touches it, or at the latest in Stop before the rings close — so the
// backlog is never lost.
func TestKillWithoutMonitor(t *testing.T) {
	each(t, owners, func(t *testing.T, o owner) {
		r := o.start(t, Config{
			Workers: 2,
			RingCap: 32,
			Batch:   8,
			Sched:   pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}),
			Policy:  BlockWhenFull,
			Faults:  &FaultPlan{Faults: []Fault{{Worker: 1, After: 500, Kind: FaultKill}}},
		})
		feed(t, r.offer, r.Now, 20000, 1, 17)
		res := r.stop()
		checkConservation(t, res)
		if res.Dropped != 0 {
			t.Fatalf("dropped %d packets recovering a kill without a monitor", res.Dropped)
		}
		if res.OutOfOrder != 0 {
			t.Fatalf("%d out-of-order departures", res.OutOfOrder)
		}
		if !res.Workers[1].Dead {
			t.Fatal("killed worker not quarantined")
		}
	})
}

// TestSlowWorkerNotDeclaredDead: a degraded-but-progressing worker is
// the detector's false-positive case — it must never be quarantined.
func TestSlowWorkerNotDeclaredDead(t *testing.T) {
	each(t, owners, func(t *testing.T, o owner) {
		r := o.start(t, Config{
			Workers: 2,
			RingCap: 32,
			Batch:   8,
			Sched:   pick[npsim.Scheduler](o, hashSched{n: 2}, snapHash{n: 2}),
			Policy:  BlockWhenFull,
			Faults: &FaultPlan{Faults: []Fault{
				{Worker: 1, After: 200, Kind: FaultSlow, Duration: 300 * time.Millisecond},
			}},
			DetectWindow: 60 * time.Millisecond,
		})
		feed(t, r.offer, r.Now, 20000, 1, 23)
		res := r.stop()
		checkConservation(t, res)
		if res.WorkerDeaths != 0 || res.WorkerStalls != 0 {
			t.Fatalf("slow worker declared dead: deaths=%d stalls=%d",
				res.WorkerDeaths, res.WorkerStalls)
		}
		if res.Processed != res.Dispatched {
			t.Fatalf("processed %d != dispatched %d", res.Processed, res.Dispatched)
		}
	})
}

// TestFencedFlowSurvivesOldWorkerStall ties the satellite fixes to the
// tentpole: a flow is re-homed while packets are still in flight on its
// old worker (so the fence pins it there), then the old worker stalls
// past the window. Recovery must drain the fenced backlog in order and
// re-point the flow — departures stay strictly in order.
func TestFencedFlowSurvivesOldWorkerStall(t *testing.T) {
	const window = 50 * time.Millisecond
	plan := &FaultPlan{Faults: []Fault{
		{Worker: 0, After: 8, Kind: FaultStall, Duration: time.Second},
	}}
	e, err := New(Config{
		Workers:      2,
		RingCap:      32,
		Batch:        4,
		Sched:        hashSched{n: 2}, // unused: this test routes explicitly
		Policy:       BlockWhenFull,
		Faults:       plan,
		DetectWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	flow := fkey(7)
	var seq, id uint64
	send := func(target, n int) {
		for i := 0; i < n; i++ {
			id++
			e.DispatchTo(&packet.Packet{ID: id, Flow: flow, FlowSeq: seq}, target)
			seq++
		}
	}
	// Home the flow on worker 0; the stall engages after 8 retirements,
	// leaving the rest of these packets stranded in its ring.
	send(0, 24)
	time.Sleep(20 * time.Millisecond)
	// Migration attempt: the fence must pin these to worker 0 (in-flight
	// packets there) until the monitor declares it dead and recovery
	// re-injects everything — after which the flow lives on worker 1.
	send(1, 60)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("flow reordered across recovery: %d OOO departures", res.OutOfOrder)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d packets", res.Dropped)
	}
	if res.Fenced == 0 {
		t.Fatal("migration attempt was never fenced; test lost its race setup")
	}
	if res.WorkerStalls == 0 || !res.Workers[0].Dead {
		t.Fatalf("stalled worker not quarantined: stalls=%d dead=%v",
			res.WorkerStalls, res.Workers[0].Dead)
	}
	if res.Reinjected == 0 {
		t.Fatal("recovery re-injected nothing despite a stranded fenced backlog")
	}
}

// TestFaultPlanValidation covers plan rejection and the random
// generator's determinism and survivor guarantee.
func TestFaultPlanValidation(t *testing.T) {
	bad := &FaultPlan{Faults: []Fault{{Worker: 5, Kind: FaultKill}}}
	if _, err := New(Config{Workers: 2, Sched: hashSched{n: 2}, Faults: bad}); err == nil {
		t.Fatal("out-of-range fault worker accepted")
	}
	allDead := &FaultPlan{Faults: []Fault{
		{Worker: 0, Kind: FaultKill}, {Worker: 1, Kind: FaultKill},
	}}
	if _, err := New(Config{Workers: 2, Sched: hashSched{n: 2}, Faults: allDead}); err == nil {
		t.Fatal("plan killing every worker accepted")
	}
	noDur := &FaultPlan{Faults: []Fault{{Worker: 0, Kind: FaultStall}}}
	if _, err := New(Config{Workers: 2, Sched: hashSched{n: 2}, Faults: noDur}); err == nil {
		t.Fatal("zero-duration stall accepted")
	}
	a := RandomFaultPlan(77, 8, 5, 3, 1000, time.Millisecond)
	b := RandomFaultPlan(77, 8, 5, 3, 1000, time.Millisecond)
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("same seed, different plans")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("same seed, fault %d differs: %+v vs %+v", i, a.Faults[i], b.Faults[i])
		}
		if a.Faults[i].Kind == FaultKill && a.Faults[i].Worker == 0 {
			t.Fatal("random plan killed worker 0, the guaranteed survivor")
		}
	}
}

// TestWorkSleepBatchStaysInService is the regression test for the two
// WorkSleep satellites: during a batch's emulated service time the
// worker must (a) still report the batch via QueueLen — it is in
// service, not drained — and (b) not have retired anything, so a
// migration fence keyed on the retired count cannot clear while the
// modeled work is pending.
func TestWorkSleepBatchStaysInService(t *testing.T) {
	var services [packet.NumServices]npsim.ServiceDef
	for i := range services {
		services[i] = npsim.ServiceDef{Name: "flat", Base: sim.Time(50 * time.Millisecond)}
	}
	e, err := New(Config{
		Workers:  1,
		RingCap:  64,
		Batch:    4,
		Sched:    hashSched{n: 1},
		Policy:   BlockWhenFull,
		Work:     WorkSleep,
		Services: services,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	flow := fkey(3)
	for i := 0; i < 4; i++ {
		e.Dispatch(&packet.Packet{ID: uint64(i + 1), Flow: flow, FlowSeq: uint64(i)})
	}
	e.Flush()
	// Mid-sleep (the batch models 4 × 50 ms): the packets are either
	// still ringed or held by inflight — in both cases visible.
	time.Sleep(30 * time.Millisecond)
	if got := e.QueueLen(0); got < 4 {
		t.Fatalf("QueueLen %d during a WorkSleep batch; the 4 in-service packets went invisible", got)
	}
	if p := e.workers[0].processed.Load(); p != 0 {
		t.Fatalf("%d packets retired before their modeled service time elapsed", p)
	}
	res := e.Stop()
	checkConservation(t, res)
	if res.Processed != 4 {
		t.Fatalf("processed %d, want 4", res.Processed)
	}
}

// TestRecorderClockBeforeStart: events emitted between New and Start
// must carry sane runtime-clock timestamps, not the garbage produced by
// stamping against the zero time.
func TestRecorderClockBeforeStart(t *testing.T) {
	rec := obs.NewRecorder(16)
	if _, err := New(Config{Workers: 1, Sched: hashSched{n: 1}, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	rec.Emit(obs.Event{Kind: obs.EvDrop, Service: -1, Core: -1, Core2: -1})
	ev := rec.Events()[0]
	if ev.T < 0 || ev.T > sim.Time(time.Hour) {
		t.Fatalf("pre-start event stamped %v; clock epoch not set at construction", ev.T)
	}
}

// TestRingLenThirdGoroutine hammers Len from a goroutine that is
// neither producer nor consumer: the snapshot must always land in
// [0, Cap] (the old tail-first load order could observe head > tail and
// return garbage).
func TestRingLenThirdGoroutine(t *testing.T) {
	r := NewRing(64)
	stop := make(chan struct{})
	go func() { // producer
		one := []*packet.Packet{{ID: 1}}
		for {
			select {
			case <-stop:
				return
			default:
				r.PushBatch(one)
			}
		}
	}()
	go func() { // consumer
		out := make([]*packet.Packet, 1)
		for {
			select {
			case <-stop:
				return
			default:
				r.PopBatch(out)
			}
		}
	}()
	for i := 0; i < 200000; i++ {
		if n := r.Len(); n < 0 || n > r.Cap() {
			close(stop)
			t.Fatalf("racy Len snapshot %d outside [0, %d]", n, r.Cap())
		}
	}
	close(stop)
}

// BenchmarkFlowTableAtCapInsert prices the new-flow insert at the fence
// table's bound in its worst case: half the table in flight on one
// worker — all the rings allow — and every new flow already drained on
// the other, so each sweep frees only the half it must. Amortised O(1):
// one O(slots) sweep per flowCap/2 inserts.
func BenchmarkFlowTableAtCapInsert(b *testing.B) {
	e, err := New(Config{Workers: 2, Sched: hashSched{n: 2}})
	if err != nil {
		b.Fatal(err)
	}
	e.enqSeq[0] = 1
	for i := 0; i < e.flowCap/2; i++ {
		k := fkey(i)
		e.flows.Put(k, crc.FlowHash(k), flowState{core: 0, seq: 1}) // in flight: seq > retired(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fkey(e.flowCap + i)
		h := crc.FlowHash(k)
		_, s := e.flows.Probe(k, h)
		e.rememberFlowSeen(k, h, s, 1, 0) // seq 0: drained on worker 1
	}
}
