package runtime

import (
	stdrt "runtime"
	"testing"
	"time"

	"laps/internal/npsim"
	"laps/internal/packet"
)

// TestBudgetSketchFencedOrdering drives the migration storm under the
// smallest budget, one flow per tracker shard: every shard switches to
// its sampled witness on its second flow, so the witness, not the
// exact table, bounds the reorder tracker for nearly the whole storm,
// while the fence table stays per flow, bounded by what the rings hold
// in flight. Zero out-of-order departures stays an absolute invariant —
// a fence releases only once every in-flight packet that entered under
// the old core has retired — and the zero is meaningful because every
// flow the storm moves is in the witness's sensitive group
// (TestUnfencedMigrationIsWitnessed shows the same witness counting the
// reorderings once the fence is off).
func TestBudgetSketchFencedOrdering(t *testing.T) { each(t, engineRow, budgetSketchFencedOrdering) }
func TestShardedBudgetSketchFencedOrdering(t *testing.T) {
	each(t, shardedRows, budgetSketchFencedOrdering)
}

func budgetSketchFencedOrdering(t *testing.T, o owner) {
	res := storm(t, o, reorderShards)
	if res.FlowBudgetHits != reorderShards {
		t.Fatalf("budget of one flow per shard switched %d of %d tracker shards", res.FlowBudgetHits, reorderShards)
	}
	if res.EstimatedOOO != res.OutOfOrder {
		t.Fatalf("witness run: EstimatedOOO=%d OutOfOrder=%d, want equal", res.EstimatedOOO, res.OutOfOrder)
	}
	if res.Fenced == 0 {
		t.Fatal("storm produced no fenced packets")
	}
}

// TestBudgetAutoDegradeFencedOrdering drives the migration storm under
// a flow budget far below the live-flow population: the reorder
// tracker switches from exact to its witness mid-storm (FlowBudgetHits
// counts those switches, and nothing else), while the fence table stays
// per flow, bounded by what the rings hold in flight. Zero
// out-of-order departures stays an absolute invariant across the
// handoff — a fence releases only once every in-flight packet that
// entered under the old core has retired — and the zero past the
// switch is meaningful because every flow the storm moves is in the
// witness's sensitive group (TestUnfencedMigrationIsWitnessed shows the
// same witness counting the reorderings once the fence is off).
func TestBudgetAutoDegradeFencedOrdering(t *testing.T) { each(t, engineRow, budgetAutoDegrade) }
func TestShardedBudgetAutoDegradeFencedOrdering(t *testing.T) {
	each(t, shardedRows, budgetAutoDegrade)
}

func budgetAutoDegrade(t *testing.T, o owner) {
	res := storm(t, o, 256)
	if res.FlowBudgetHits == 0 {
		t.Fatalf("budget 256 with ~1000 live flows never switched the tracker (hits=0)")
	}
	if res.EstimatedOOO != 0 {
		t.Fatalf("witness counted %d out-of-order departures in a fenced storm", res.EstimatedOOO)
	}
	if res.Fenced == 0 {
		t.Fatal("storm produced no fenced packets")
	}
	t.Logf("auto-degrade: budget-hits=%d fenced=%d witness level=%d",
		res.FlowBudgetHits, res.Fenced, res.WitnessLevel)
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
		name     string
		o        owner
		unfenced bool
	}{
		{"Engine/unfenced", owners[0], true},
		{"Engine/fenced", owners[0], false},
		{"Sharded/unfenced", owners[1], true},
		{"Sharded/fenced", owners[1], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			r := o.start(t, Config{Workers: 4, RingCap: 64, Batch: 16, Policy: BlockWhenFull,
				DisableFencing: tc.unfenced, FlowBudget: budget,
				Sched: pick[npsim.Scheduler](o, &flapSched{n: 4, period: 700}, &snapFlap{n: 4, period: 50})})
			p := r.plane
			id := uint64(0)
			send := func(f packet.FlowKey, seq uint64) {
				id++
				r.offer(&packet.Packet{ID: id, Flow: f, Size: 64, FlowSeq: seq})
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
				r.flush()
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
			res := r.stop()
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
// witness: a tracker samples from its first budget hit on.
func allSampling(t *testing.T, p *plane) bool {
	t.Helper()
	for i := range p.tracker.shards {
		sh := &p.tracker.shards[i]
		sh.mu.Lock()
		on := sh.t.BudgetHits() > 0
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
