package runtime

import (
	"sync"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
)

// reorderShards is the shard count of the concurrent egress tracker.
// Sharding by flow hash keeps two workers from contending unless they
// are simultaneously retiring packets of flows that collide on a shard
// — rare at 32 shards and a handful of workers.
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

// trackerConfig maps an engine Config onto the per-flow tracker knobs:
// FlowBudget + Memory bound it (under MemoryExact the budget is a hard
// FIFO cap); the zero config is exact and unbounded.
func trackerConfig(cfg Config) npsim.TrackerConfig {
	if cfg.FlowBudget > 0 || cfg.Memory == npsim.MemorySketch {
		return npsim.TrackerConfig{FlowBudget: cfg.FlowBudget, Memory: cfg.Memory}
	}
	return npsim.TrackerConfig{}
}

// newSharedTracker builds a tracker from a TrackerConfig whose
// FlowBudget, if any, is split across shards (minimum 1 flow per
// shard).
func newSharedTracker(cfg npsim.TrackerConfig) *sharedTracker {
	s := &sharedTracker{}
	per := cfg
	if cfg.FlowBudget > 0 {
		per.FlowBudget = (cfg.FlowBudget + reorderShards - 1) / reorderShards
	}
	if per.SizeHint <= 0 {
		// Start each shard small and let it grow to its slice of the
		// working set: 32 shards at the default 16k-flow pre-size
		// would burn ~20 MB of tables and miss cache on every record.
		per.SizeHint = 1 << 7
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

// outOfOrder sums out-of-order departures across shards.
func (s *sharedTracker) outOfOrder() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.OutOfOrder()
		sh.mu.Unlock()
	}
	return n
}

// estimatedOOO sums sketch-flagged out-of-order departures across
// shards.
func (s *sharedTracker) estimatedOOO() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.EstimatedOOO()
		sh.mu.Unlock()
	}
	return n
}

// budgetHits sums exact→sketch degrade transitions across shards.
func (s *sharedTracker) budgetHits() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.BudgetHits()
		sh.mu.Unlock()
	}
	return n
}

// evicted sums evicted flow watermarks across shards.
func (s *sharedTracker) evicted() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.Evicted()
		sh.mu.Unlock()
	}
	return n
}

// flows sums tracked flows across shards.
func (s *sharedTracker) flows() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.t.Flows()
		sh.mu.Unlock()
	}
	return n
}
