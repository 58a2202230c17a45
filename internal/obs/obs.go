// Package obs is the telemetry layer of the simulator stack: a
// ring-buffered stream of typed control-plane events (flow migrations,
// map-table splits, core steals, AFC activity, drops, out-of-order
// departures) plus a probe-based time-series sampler.
//
// The paper's argument rests on *when* these events happen relative to
// load and queue dynamics (Figs 7-9), so they are recorded first-class
// instead of being reconstructed from end-of-run counters.
//
// Design constraints:
//
//   - Zero allocation on the hot path. The ring is pre-allocated; Emit
//     writes one Event value and bumps counters.
//   - Nil safety. Every Recorder method is a no-op on a nil receiver, so
//     instrumented code pays exactly one branch when telemetry is off and
//     needs no conditional wiring.
//   - Determinism. Events are stamped with sim.Time from the engine
//     clock, never wall time, so identical seeds yield identical traces.
package obs

import (
	"sort"

	"laps/internal/packet"
	"laps/internal/sim"
)

// Kind is the type of a control-plane event.
type Kind uint8

// The event vocabulary. Core2 / Val carry per-kind context documented on
// each constant; fields not mentioned are unset (-1 for IDs).
const (
	// EvFlowMigration: a flow was migrated. Core = destination,
	// Core2 = previous target, Val = destination queue length.
	EvFlowMigration Kind = iota
	// EvMapSplit: a service's map table grew by one bucket (linear-hash
	// Grow). Core = the added core, Val = new bucket count.
	EvMapSplit
	// EvMapMerge: a service's map table shrank by one bucket (Shrink).
	// Core = the removed core, Val = new bucket count.
	EvMapMerge
	// EvCoreSteal: a surplus core changed owner. Core = the stolen core,
	// Service = the requesting service, Val = the donor service.
	EvCoreSteal
	// EvCorePark: consolidation removed a core from its service's map
	// table but kept it owned. Core = the parked core.
	EvCorePark
	// EvCoreReturn: a parked core was re-inserted into its service's map
	// table. Core = the returning core.
	EvCoreReturn
	// EvSurplusMark: a long-idle core entered the surplus list.
	EvSurplusMark
	// EvSurplusUnmark: a surplus core saw traffic again and left the list.
	EvSurplusUnmark
	// EvAFCPromote: a flow qualified out of the annex into the AFC.
	// Val = the flow's reference count at promotion.
	EvAFCPromote
	// EvAFCDemote: the AFC's LFU victim was demoted back into the annex.
	// Val = the victim's reference count.
	EvAFCDemote
	// EvAFCInvalidate: a just-migrated flow was invalidated out of the
	// AFC (Listing 1).
	EvAFCInvalidate
	// EvOOODepart: a packet departed out of order. Core = the departing
	// core, Val = the packet's flow sequence number.
	EvOOODepart
	// EvDrop: a packet was lost to a full queue. Core = the full core
	// (-1 for the shared queue), Val = the queue occupancy at drop time.
	EvDrop
	// EvWorkerStall: the health monitor saw a live worker with backlog
	// make no progress for a full detection window. Core = the worker,
	// Val = nanoseconds since its last observed progress.
	EvWorkerStall
	// EvWorkerDead: a worker was quarantined (crashed, or stalled past
	// the detection window). Core = the worker, Val = its stranded
	// backlog (rings + in service) at quarantine time.
	EvWorkerDead
	// EvRecovery: a quarantined worker's backlog was drained and its
	// resident flows remapped to live workers. Core = the dead worker,
	// Val = packets re-injected.
	EvRecovery
	// EvSnapshotPublish: the control plane published a fresh forwarding
	// view for the dispatcher shards. Val = the scheduler generation the
	// view was built from.
	EvSnapshotPublish
	// EvFenceStart: a migrating flow hit a drain fence — its packets now
	// queue behind the old worker's backlog until it drains. Opens a
	// span closed by EvFenceEnd for the same flow. Core = the worker
	// still holding the flow, Core2 = the desired new target, Val = the
	// enqueue seq the fence waits on.
	EvFenceStart
	// EvFenceEnd: the drain fence released — the flow's last packet
	// retired on the old worker (or the fence was force-released /
	// FIFO-evicted) and the flow moved. Core = the new target, Core2 =
	// the worker it drained from, Val = the hold duration in
	// nanoseconds.
	EvFenceEnd
	// EvRecoveryStart: a dispatch lane began draining its ring of a dead
	// worker. Opens a span closed by EvRecoveryEnd. Core = the dead
	// worker, Core2 = the recovering lane (the shard; 0 on the
	// single-dispatcher engine), Val = the lane's backlog there (ring +
	// staged).
	EvRecoveryStart
	// EvRecoveryEnd: the lane finished re-injecting the dead worker's
	// backlog. Core = the dead worker, Core2 = the recovering lane, Val =
	// the recovery duration in nanoseconds.
	EvRecoveryEnd

	numKinds
)

var kindNames = [numKinds]string{
	EvFlowMigration:   "migration",
	EvMapSplit:        "map-split",
	EvMapMerge:        "map-merge",
	EvCoreSteal:       "core-steal",
	EvCorePark:        "core-park",
	EvCoreReturn:      "core-return",
	EvSurplusMark:     "surplus-mark",
	EvSurplusUnmark:   "surplus-unmark",
	EvAFCPromote:      "afc-promote",
	EvAFCDemote:       "afc-demote",
	EvAFCInvalidate:   "afc-invalidate",
	EvOOODepart:       "ooo-depart",
	EvDrop:            "drop",
	EvWorkerStall:     "worker-stall",
	EvWorkerDead:      "worker-dead",
	EvRecovery:        "recovery",
	EvSnapshotPublish: "snapshot-publish",
	EvFenceStart:      "fence-start",
	EvFenceEnd:        "fence-end",
	EvRecoveryStart:   "recovery-start",
	EvRecoveryEnd:     "recovery-end",
}

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// HasFlow reports whether events of this kind carry a flow identity.
func (k Kind) HasFlow() bool {
	switch k {
	case EvFlowMigration, EvAFCPromote, EvAFCDemote, EvAFCInvalidate, EvOOODepart, EvDrop,
		EvFenceStart, EvFenceEnd:
		return true
	}
	return false
}

// SpanPhase reports whether k opens or closes a span: +1 for a start
// kind, -1 for an end kind, 0 for instant events. Trace sinks use it
// to render fence and recovery intervals as durations instead of
// points.
func (k Kind) SpanPhase() int {
	switch k {
	case EvFenceStart, EvRecoveryStart:
		return +1
	case EvFenceEnd, EvRecoveryEnd:
		return -1
	}
	return 0
}

// NumKinds is the number of defined event kinds.
const NumKinds = int(numKinds)

// Event is one control-plane occurrence. It is a plain value: emitting
// one performs no allocation.
type Event struct {
	T       sim.Time       // simulation timestamp (stamped by the Recorder)
	Kind    Kind           // what happened
	Service int16          // service involved, -1 when not applicable
	Core    int32          // primary core, -1 when not applicable
	Core2   int32          // secondary core (e.g. migration source), -1 when n/a
	Val     int64          // per-kind auxiliary value (see Kind constants)
	Flow    packet.FlowKey // flow identity, meaningful iff Kind.HasFlow()
}

// DefaultRingCap is the ring capacity NewRecorder uses for cap <= 0:
// 64k events ≈ 2.5 MB, enough to hold the full control-plane history of
// any paper-scale run.
const DefaultRingCap = 1 << 16

// Recorder buffers events in a fixed ring, overwriting the oldest when
// full, so tracing a long run keeps the most recent window. A nil
// *Recorder is valid and records nothing: instrumented code calls Emit
// unconditionally and pays a single branch when tracing is disabled.
type Recorder struct {
	clock  func() sim.Time
	ring   []Event
	head   int // index of the oldest buffered event
	n      int // buffered events
	total  uint64
	counts [numKinds]uint64
}

// NewRecorder builds a Recorder with the given ring capacity
// (DefaultRingCap when cap <= 0). The clock is unset; attach one with
// SetClock (npsim.System.SetRecorder does this automatically).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// SetClock attaches the time source used to stamp events. No-op on nil.
func (r *Recorder) SetClock(now func() sim.Time) {
	if r == nil {
		return
	}
	r.clock = now
}

// Emit records one event, stamping e.T from the attached clock. It never
// allocates; on a nil receiver it is a no-op (one branch).
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if r.clock != nil {
		e.T = r.clock()
	}
	if int(e.Kind) < len(r.counts) {
		r.counts[e.Kind]++
	}
	r.total++
	if r.n < len(r.ring) {
		r.ring[(r.head+r.n)%len(r.ring)] = e
		r.n++
		return
	}
	// Full: overwrite the oldest.
	r.ring[r.head] = e
	r.head = (r.head + 1) % len(r.ring)
}

// Len reports how many events are currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Total reports how many events were emitted over the Recorder's life,
// including any that have been overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Overwritten reports how many events the ring has discarded.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.n)
}

// Count reports how many events of kind k were emitted (lifetime).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Events returns a copy of the buffered events, oldest first. Timestamps
// are monotonically non-decreasing because emission follows the engine
// clock.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(r.head+i)%len(r.ring)]
	}
	return out
}

// Merge folds externally-recorded events into the buffer, re-sorting
// the whole stream by timestamp so events collected on other
// goroutines' private recorders interleave correctly with this one's.
// The merged events are counted as emitted; when the combined stream
// exceeds the ring, the oldest events are discarded (counted in
// Overwritten), matching Emit's overwrite semantics. No-op on nil.
func (r *Recorder) Merge(events []Event) {
	if r == nil || len(events) == 0 {
		return
	}
	all := append(r.Events(), events...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].T < all[j].T })
	for _, e := range events {
		if int(e.Kind) < len(r.counts) {
			r.counts[e.Kind]++
		}
	}
	r.total += uint64(len(events))
	if len(all) > len(r.ring) {
		all = all[len(all)-len(r.ring):]
	}
	r.head = 0
	r.n = copy(r.ring, all)
}

// Drain writes the buffered events to the sink, oldest first, and clears
// the ring. Lifetime counters (Total, Count) are preserved. The sink is
// not closed — call Close on it when the run ends.
func (r *Recorder) Drain(s Sink) error {
	if r == nil {
		return nil
	}
	for i := 0; i < r.n; i++ {
		if err := s.Write(r.ring[(r.head+i)%len(r.ring)]); err != nil {
			return err
		}
	}
	r.head, r.n = 0, 0
	return nil
}

// Reset clears the ring and all counters. No-op on nil.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.head, r.n, r.total = 0, 0, 0
	r.counts = [numKinds]uint64{}
}
