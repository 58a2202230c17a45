package runtime

import (
	"sync"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
)

// reorderShards is the shard count of the concurrent egress tracker.
// A flow's shard is its CRC16 mod 32 (trackerShardOf), the low bits the
// scheduler's map table buckets flows on too, so one worker's flows
// fall in few shards and two workers seldom lock the same one. Every
// key in a shard therefore shares its low 5 CRC bits, which is why the
// shard's own tables home flows on an independent hash (npsim's
// tableHash), not on the CRC16. Sharding on a mix of the CRC instead
// spread every worker over every shard (docs/PERFORMANCE.md, "One probe
// per flow run").
const reorderShards = 32

// sharedTracker is a concurrency-safe egress reorder detector. The
// per-flow watermark logic is npsim.ReorderTracker's; this type only
// adds sharded locking so every worker can record departures without a
// global serialisation point.
type sharedTracker struct {
	shards [reorderShards]struct {
		mu sync.Mutex
		t  *npsim.ReorderTracker
		_  [40]byte // keep shards on distinct cache lines
	}
}

// newSharedTracker builds a tracker whose flow budget, if any, is
// split across shards (minimum 1 flow per shard). Each shard starts
// small and grows to its slice of the working set: 32 shards at the
// default 16k-flow pre-size would burn ~20 MB of tables and miss cache
// on every record.
func newSharedTracker(budget int) *sharedTracker {
	s := &sharedTracker{}
	per := npsim.TrackerConfig{SizeHint: 1 << 7}
	if budget > 0 {
		per.FlowBudget = (budget + reorderShards - 1) / reorderShards
	}
	for i := range s.shards {
		s.shards[i].t = npsim.NewTracker(per)
	}
	return s
}

// trackerShardOf is the shard that holds p's flow. Workers lock it
// once per run of departures that share it (worker.consume).
func trackerShardOf(p *packet.Packet) uint16 {
	return crc.PacketHash(p) % reorderShards
}

// trackerTotals is what Result and the registry read off the reorder
// tracker: its counters summed across shards, and the sparsest control
// group among them — the highest witness level.
type trackerTotals struct {
	ooo, estimated, budgetHits, evicted uint64
	flows, level                        int
}

// totals reads every shard once, under its lock.
func (s *sharedTracker) totals() trackerTotals {
	var t trackerTotals
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		t.ooo += sh.t.OutOfOrder()
		t.estimated += sh.t.EstimatedOOO()
		t.budgetHits += sh.t.BudgetHits()
		t.evicted += sh.t.Evicted()
		t.flows += sh.t.Flows()
		t.level = max(t.level, sh.t.Level())
		sh.mu.Unlock()
	}
	return t
}

// markMoved puts flow f, whose CRC16 is h, in its shard's witness
// sensitive group (npsim.ReorderTracker.MarkMoved). Lanes call it for
// the flows they fence, migrate or re-inject, before the moved packet
// is staged, and only under a budget — an exact tracker has no witness.
func (s *sharedTracker) markMoved(f packet.FlowKey, h uint16) {
	sh := &s.shards[h%reorderShards]
	sh.mu.Lock()
	sh.t.MarkMoved(f)
	sh.mu.Unlock()
}
