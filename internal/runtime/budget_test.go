package runtime

import (
	"context"
	stdrt "runtime"
	"testing"
	"time"

	"laps/internal/npsim"
	"laps/internal/packet"
)

// TestBudgetSketchFencedOrdering drives the classic engine through a
// migration storm with MemorySketch bounding every per-flow structure
// from the start: the reorder tracker is a sampled witness and fencing
// runs at hash-bucket granularity (coarseFence). Zero out-of-order
// departures stays an absolute invariant — the coarse fence releases a
// bucket only once every in-flight packet that entered under the old
// core has retired — and the zero is meaningful because every flow the
// storm moves is in the witness's sensitive group
// (TestUnfencedMigrationIsWitnessed shows the same witness counting the
// reorderings once the fence is off).
func TestBudgetSketchFencedOrdering(t *testing.T) {
	e, err := New(Config{
		Workers:    4,
		RingCap:    64,
		Batch:      16,
		Sched:      &flapSched{n: 4, period: 700},
		FlowBudget: 1 << 16,
		Memory:     npsim.MemorySketch,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("coarse fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if res.EstimatedOOO != res.OutOfOrder {
		t.Fatalf("MemorySketch run: EstimatedOOO=%d OutOfOrder=%d, want equal", res.EstimatedOOO, res.OutOfOrder)
	}
	if res.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
	}
	if res.Fenced == 0 {
		t.Fatal("storm produced no fenced packets")
	}
}

// TestBudgetAutoDegradeFencedOrdering pins the MemoryAuto transition on
// the classic engine: a flow budget far below the live-flow population
// forces the dispatcher's exact fence table into a futile sweep, after
// which it activates coarse fencing (FlowBudgetHits) — and ordering
// must survive the handoff, because the exact table stays authoritative
// for entries it still holds while new fences land in buckets.
func TestBudgetAutoDegradeFencedOrdering(t *testing.T) {
	e, err := New(Config{
		Workers:    4,
		RingCap:    64,
		Batch:      16,
		Sched:      &flapSched{n: 4, period: 700},
		FlowBudget: 256,
		Memory:     npsim.MemoryAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feed(t, e, 120000, 2, 42)
	res := e.Stop()
	checkConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("ordering broke across the exact→coarse handoff: %d out-of-order departures", res.OutOfOrder)
	}
	if res.FlowBudgetHits == 0 {
		t.Fatalf("budget 256 with ~1000 live flows never degraded (hits=0)")
	}
	if res.Migrations == 0 {
		t.Fatal("migration storm produced no migrations")
	}
	t.Logf("auto-degrade: budget-hits=%d fenced=%d estimated-ooo=%d",
		res.FlowBudgetHits, res.Fenced, res.EstimatedOOO)
}

// TestShardedBudgetSketchFencedOrdering is the sharded twin of
// TestBudgetSketchFencedOrdering: snapshot-driven migration storm, four
// dispatcher shards, per-shard coarse fences active from the start.
func TestShardedBudgetSketchFencedOrdering(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 4,
		RingCap:     64,
		Batch:       16,
		Sched:       &snapFlap{n: 4, period: 400},
		Policy:      BlockWhenFull,
		FlowBudget:  1 << 16,
		Memory:      npsim.MemorySketch,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 120000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("sharded coarse fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if res.EstimatedOOO != res.OutOfOrder {
		t.Fatalf("MemorySketch run: EstimatedOOO=%d OutOfOrder=%d, want equal", res.EstimatedOOO, res.OutOfOrder)
	}
	if res.Migrations == 0 {
		t.Fatal("snapshot-driven migration storm produced no migrations")
	}
}

// TestShardedBudgetAutoDegradeFencedOrdering forces the per-shard
// exact→coarse handoff on the sharded engine and checks ordering plus
// the degrade signal.
func TestShardedBudgetAutoDegradeFencedOrdering(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 4,
		RingCap:     64,
		Batch:       16,
		Sched:       &snapFlap{n: 4, period: 400},
		Policy:      BlockWhenFull,
		FlowBudget:  256,
		Memory:      npsim.MemoryAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 120000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("ordering broke across the sharded exact→coarse handoff: %d out-of-order departures", res.OutOfOrder)
	}
	if res.FlowBudgetHits == 0 {
		t.Fatalf("per-shard budget with ~1000 live flows never degraded (hits=0)")
	}
	t.Logf("sharded auto-degrade: budget-hits=%d fenced=%d estimated-ooo=%d",
		res.FlowBudgetHits, res.Fenced, res.EstimatedOOO)
}

// TestUnfencedMigrationIsWitnessed: past the flow budget the reorder
// tracker samples, and the flows the lanes move are what it must not
// lose. Each row warms a budgeted engine with single-packet flows until
// every tracker shard has switched to its witness — the seeding
// overflows each 64-flow witness, so levels start well above 0 — and
// then runs a flap storm over a few hot flows chosen outside the
// control group at every level above 0, among fresh cold flows. Only
// the sensitive group, fed by the lane's markMoved, can see the hot
// flows: unfenced, their reorderings must be counted, every one of them
// a sampled count; fenced, there must be none.
func TestUnfencedMigrationIsWitnessed(t *testing.T) {
	const budget = 1 << 15 // 1024 flows per tracker shard, a 64-flow witness
	var hot []packet.FlowKey
	for i := uint32(1); len(hot) < 8; i++ {
		f := packet.FlowKey{SrcIP: 0x0A000000 | i, DstIP: 0x0A640001, SrcPort: uint16(1024 + i), DstPort: 443, Proto: packet.ProtoTCP}
		if !npsim.InControlGroup(f, 1) {
			hot = append(hot, f)
		}
	}
	cold := uint32(0)
	coldFlow := func() packet.FlowKey {
		cold++
		x := uint64(cold) * 0x9E3779B97F4A7C15
		return packet.FlowKey{SrcIP: uint32(x >> 32), DstIP: uint32(x), SrcPort: uint16(x >> 16), DstPort: 80, Proto: packet.ProtoTCP}
	}
	for _, tc := range []struct {
		name              string
		sharded, unfenced bool
	}{
		{"Engine/unfenced", false, true},
		{"Engine/fenced", false, false},
		{"Sharded/unfenced", true, true},
		{"Sharded/fenced", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 4, RingCap: 64, Batch: 16, Policy: BlockWhenFull,
				DisableFencing: tc.unfenced, FlowBudget: budget, Memory: npsim.MemoryAuto}
			var (
				p     *plane
				offer func(*packet.Packet)
				flush func()
				stop  func() *Result
			)
			if tc.sharded {
				cfg.Dispatchers, cfg.Sched = 2, &snapFlap{n: 4, period: 50}
				e, err := NewSharded(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Start(context.Background())
				p, offer, flush, stop = e.plane, func(q *packet.Packet) { e.Ingest(q) }, func() {}, e.Stop
			} else {
				cfg.Sched = &flapSched{n: 4, period: 700}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Start(context.Background())
				p, offer, flush, stop = e.plane, func(q *packet.Packet) { e.Dispatch(q) }, e.Flush, e.Stop
			}
			id := uint64(0)
			send := func(f packet.FlowKey, seq uint64) {
				id++
				offer(&packet.Packet{ID: id, Flow: f, Size: 64, FlowSeq: seq})
				if id%feedYield == 0 {
					stdrt.Gosched()
				}
			}
			// Warm up until every tracker shard samples, with nothing in
			// flight: the storm below must be counted by witnesses alone.
			for !allSampling(t, p) {
				for range 8192 {
					send(coldFlow(), 0)
				}
				flush()
				drained(t, p)
			}
			var seq [8]uint64
			for i := range 120000 {
				if i%4 == 0 {
					h := i / 4 % len(hot)
					send(hot[h], seq[h])
					seq[h]++
				} else {
					send(coldFlow(), 0)
				}
			}
			res := stop()
			checkConservation(t, res)
			if res.Migrations == 0 || res.WitnessLevel < 3 {
				t.Fatalf("migrations=%d witness level=%d: want a storm through witnesses at level >= 3", res.Migrations, res.WitnessLevel)
			}
			if res.EstimatedOOO != res.OutOfOrder {
				t.Fatalf("EstimatedOOO=%d OutOfOrder=%d: every reordering past the switch is a sampled count", res.EstimatedOOO, res.OutOfOrder)
			}
			if tc.unfenced && res.OutOfOrder == 0 {
				t.Fatalf("unfenced storm over %d moved flows: no reordering witnessed (migrations=%d)", len(hot), res.Migrations)
			}
			if !tc.unfenced && res.OutOfOrder != 0 {
				t.Fatalf("fenced storm: %d out-of-order departures", res.OutOfOrder)
			}
			t.Logf("migrations=%d fenced=%d ooo=%d witness level=%d evicted=%d",
				res.Migrations, res.Fenced, res.OutOfOrder, res.WitnessLevel, res.EvictedFlows)
		})
	}
}

// allSampling reports whether every tracker shard has switched to its
// witness.
func allSampling(t *testing.T, p *plane) bool {
	t.Helper()
	for i := range p.tracker.shards {
		sh := &p.tracker.shards[i]
		sh.mu.Lock()
		on := sh.t.Estimating()
		sh.mu.Unlock()
		if !on {
			return false
		}
	}
	return true
}

// drained waits until every packet offered so far has been retired or
// dropped.
func drained(t *testing.T, p *plane) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var done uint64
		for _, w := range p.workers {
			done += w.processed.Load()
		}
		if done+p.droppedTotal() == p.dispatched.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packets still in flight after 10 s", p.dispatched.Load()-done-p.droppedTotal(), p.dispatched.Load())
		}
	}
}
