// Package sched implements the baseline packet schedulers the paper
// compares LAPS against (§V-A):
//
//   - FCFS — a single shared queue served by whichever core frees first;
//     no flow, order or I-cache awareness.
//   - HashOnly — static CRC16 hashing over all cores, never migrates
//     ("no migration" in Fig 9).
//   - AFS — Dittmann's hash-based scheme that shifts *arbitrary* flows to
//     the least-loaded core under imbalance.
//   - TopKOracle — Shi et al.'s scheme: exact per-flow statistics
//     identify the top-k flows and only those migrate. This is the
//     expensive comparator whose bookkeeping the AFD replaces.
//
// The LAPS scheduler itself lives in internal/core.
package sched

import (
	"fmt"

	"laps/internal/crc"
	"laps/internal/migtable"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

// FCFS marks the system's shared-queue mode: every packet joins one
// global FIFO. Use with npsim.Config.SharedQueue = true.
type FCFS struct{}

// Name identifies the scheduler.
func (FCFS) Name() string { return "fcfs" }

// Target always selects the shared queue.
func (FCFS) Target(*packet.Packet, npsim.View) int { return npsim.SharedTarget }

// HashOnly statically maps flows to cores with CRC16 % N and never
// migrates anything.
type HashOnly struct{}

// Name identifies the scheduler.
func (HashOnly) Name() string { return "hash-only" }

// Target returns the flow's static hash bucket.
func (HashOnly) Target(p *packet.Packet, v npsim.View) int {
	return int(crc.PacketHash(p)) % v.NumCores()
}

// thresholds resolves the imbalance trigger: a queue is overloaded when
// its occupancy reaches high, defaulting to 3/4 of capacity.
func threshold(high int, v npsim.View) int {
	if high > 0 {
		return high
	}
	return v.QueueCap() * 3 / 4
}

// minQueue returns the least-loaded core.
func minQueue(v npsim.View) int {
	best, bestLen := 0, v.QueueLen(0)
	for c := 1; c < v.NumCores(); c++ {
		if l := v.QueueLen(c); l < bestLen {
			best, bestLen = c, l
		}
	}
	return best
}

// AFS is Dittmann's Arbitrary Flow Shift: hash-based placement with a
// migration table, but under imbalance the *current* flow is migrated to
// the least-loaded core regardless of its rate. The paper's Fig 9 shows
// this causes many pointless migrations of mice flows.
type AFS struct {
	// HighThresh is the queue occupancy that triggers migration;
	// 0 means 3/4 of queue capacity.
	HighThresh int
	// TableCap bounds the migration table; 0 means 4096.
	TableCap int
	// Cooldown is the minimum time between successive migrations,
	// modelling Dittmann's periodic (not per-packet) imbalance
	// detection; 0 means 1.2 µs. Without it the scheduler thrashes,
	// re-migrating flows every few packets under sustained overload
	// and collapsing under its own flow-migration penalties.
	Cooldown sim.Time

	mig     *migtable.Table
	lastMig sim.Time
}

// Name identifies the scheduler.
func (a *AFS) Name() string { return "afs" }

// Target implements npsim.Scheduler.
func (a *AFS) Target(p *packet.Packet, v npsim.View) int {
	if a.mig == nil {
		cap := a.TableCap
		if cap == 0 {
			cap = 4096
		}
		a.mig = migtable.New(cap)
		if a.Cooldown == 0 {
			a.Cooldown = 1200 * sim.Nanosecond
		}
		a.lastMig = -a.Cooldown
	}
	h := crc.PacketHash(p)
	var target int
	if c, ok := a.mig.GetH(p.Flow, h); ok {
		target = c
	} else {
		target = int(h) % v.NumCores()
	}
	high := threshold(a.HighThresh, v)
	if v.QueueLen(target) >= high && v.Now()-a.lastMig >= a.Cooldown {
		minc := minQueue(v)
		if minc != target && v.QueueLen(minc) < high {
			// Arbitrary flow shift: migrate whatever flow is in hand.
			a.mig.PutH(p.Flow, h, minc)
			a.lastMig = v.Now()
			target = minc
		}
	}
	return target
}

// TopKOracle reproduces Shi et al.'s load balancer: exact per-flow
// packet counts (the per-flow statistics the paper calls infeasible in
// hardware) identify the top-K flows, and only those are migrated under
// imbalance.
type TopKOracle struct {
	// K is how many top flows are eligible for migration.
	K int
	// HighThresh triggers migration; 0 means 3/4 of queue capacity.
	HighThresh int
	// Recompute is how many packets pass between top-K recomputations;
	// 0 means 2048.
	Recompute int
	// TableCap bounds the migration table; 0 means 4096.
	TableCap int

	counts map[packet.FlowKey]uint64
	topSet map[packet.FlowKey]bool
	mig    *migtable.Table
	seen   uint64
}

// Name identifies the scheduler.
func (o *TopKOracle) Name() string { return fmt.Sprintf("oracle-top%d", o.K) }

func (o *TopKOracle) init() {
	if o.counts != nil {
		return
	}
	o.counts = make(map[packet.FlowKey]uint64, 1<<14)
	o.topSet = make(map[packet.FlowKey]bool, o.K)
	cap := o.TableCap
	if cap == 0 {
		cap = 4096
	}
	o.mig = migtable.New(cap)
	if o.Recompute == 0 {
		o.Recompute = 2048
	}
}

// recompute rebuilds the top-K set by selection over the counts. Ties
// break on the canonical key encoding so the result does not depend on
// map iteration order (simulations must be deterministic).
func (o *TopKOracle) recompute() {
	// Partial selection: keep a small ordered list of the K best.
	type fc struct {
		f packet.FlowKey
		n uint64
	}
	keyLess := func(a, b packet.FlowKey) bool {
		ba, bb := a.Bytes(), b.Bytes()
		for i := range ba {
			if ba[i] != bb[i] {
				return ba[i] < bb[i]
			}
		}
		return false
	}
	outranks := func(f packet.FlowKey, n uint64, than fc) bool {
		return n > than.n || (n == than.n && keyLess(f, than.f))
	}
	best := make([]fc, 0, o.K+1)
	for f, n := range o.counts {
		if len(best) == o.K && !outranks(f, n, best[len(best)-1]) {
			continue
		}
		i := len(best)
		best = append(best, fc{})
		for i > 0 && outranks(f, n, best[i-1]) {
			best[i] = best[i-1]
			i--
		}
		best[i] = fc{f, n}
		if len(best) > o.K {
			best = best[:o.K]
		}
	}
	o.topSet = make(map[packet.FlowKey]bool, len(best))
	for _, b := range best {
		o.topSet[b.f] = true
	}
}

// Target implements npsim.Scheduler.
func (o *TopKOracle) Target(p *packet.Packet, v npsim.View) int {
	o.init()
	o.counts[p.Flow]++
	o.seen++
	if o.seen%uint64(o.Recompute) == 0 {
		o.recompute()
	}
	h := crc.PacketHash(p)
	var target int
	if c, ok := o.mig.GetH(p.Flow, h); ok {
		target = c
	} else {
		target = int(h) % v.NumCores()
	}
	high := threshold(o.HighThresh, v)
	if v.QueueLen(target) >= high {
		minc := minQueue(v)
		if minc != target && v.QueueLen(minc) < high && o.topSet[p.Flow] {
			o.mig.PutH(p.Flow, h, minc)
			target = minc
		}
	}
	return target
}
