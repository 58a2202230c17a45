package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/stats"
)

// Policy selects what the dispatcher does with a packet whose target
// ring is full.
type Policy int

const (
	// DropWhenFull discards the packet and counts it — the behaviour of
	// a hardware frame manager with a full descriptor queue, and of the
	// simulator.
	DropWhenFull Policy = iota
	// BlockWhenFull stalls the dispatcher until the ring drains,
	// applying backpressure to the arrival source. Used by paced
	// replays and the conformance harness, where losing packets would
	// change the comparison.
	BlockWhenFull
)

// Config parameterises an Engine.
type Config struct {
	// Workers is the number of worker goroutines ("cores"); >= 1.
	Workers int
	// RingCap is each worker's SPSC ring capacity (rounded up to a
	// power of two); 0 means 256.
	RingCap int
	// Batch is the dispatch/consume batch size; 0 means 32.
	Batch int
	// Sched picks the target worker per packet. Required. Called only
	// from the dispatcher goroutine.
	Sched npsim.Scheduler
	// Policy is the full-ring behaviour (default DropWhenFull).
	Policy Policy
	// DisableFencing turns off ordering-safe migration: a migrated
	// flow's packets go to the new worker immediately, even while older
	// packets of the flow are still queued on the old one. Exposes the
	// reordering the fence exists to prevent; useful for ablation.
	DisableFencing bool
	// Work emulates per-packet processing cost (default WorkNone).
	Work WorkKind
	// WorkFactor scales the modeled service time into real time for
	// WorkSpin/WorkSleep; 0 means 1.
	WorkFactor float64
	// Services is the processing-time model used by Work; the zero
	// value selects npsim.DefaultServices.
	Services [packet.NumServices]npsim.ServiceDef
	// Handler, when set, is invoked by the owning worker for every
	// packet — the application's processing hook. It runs concurrently
	// across workers but serially within one.
	Handler func(worker int, p *packet.Packet)
	// Recorder, when non-nil, receives control-plane telemetry: drops
	// from the dispatcher, out-of-order departures from workers (merged
	// at Stop), fault-tolerance events from the health monitor, plus
	// whatever the scheduler itself emits. Events are stamped with the
	// runtime clock (ns since New).
	Recorder *obs.Recorder
	// Telemetry, when non-nil, registers live metrics on the registry —
	// scrape-time counters over the engine's atomics plus log-linear
	// latency/wait/fence/recovery histograms recorded at the existing
	// emit sites (worker retire, dispatch resolve, fence release,
	// recovery). Recording is lock-free and allocation-free; nil keeps
	// every record site a single predictable branch, same as Recorder.
	Telemetry *telemetry.Registry
	// MetricsInterval, when positive, samples per-worker queue depths
	// and throughput/drop/reorder rates on the wall clock into
	// Result.Series.
	MetricsInterval time.Duration
	// ReorderCap bounds the egress reorder tracker's per-flow state by
	// FIFO eviction; 0 keeps exact (unbounded) tracking. Subsumed by
	// FlowBudget, which bounds every per-flow structure coherently.
	ReorderCap int
	// FlowBudget bounds all per-flow state — reorder watermarks and the
	// fence table — according to Memory. 0 keeps today's exact
	// behaviour. Under MemoryAuto the budget is the live-flow count past
	// which the reorder tracker degrades to a sketch (one-sided OOO
	// estimates, see npsim.TrackerConfig) and the fence table to
	// hash-bucket granularity (coarseFence); under MemoryExact it only
	// tightens the exact bounds (tracker FIFO cap, fence sweep cap).
	FlowBudget int
	// Memory selects the bounding strategy past FlowBudget.
	Memory npsim.MemoryClass
	// FlowStateCap bounds the dispatcher's per-flow routing table.
	// When exceeded, entries whose packets have all been retired are
	// swept. The cap is soft: when a sweep finds (nearly) every entry
	// still in flight, sweeping is held off for the next cap/16 new-flow
	// inserts — so under an adversarial all-in-flight load the table can
	// overshoot the cap by cap/16 entries per held-off window while the
	// sweep cost stays amortised O(1) per insert instead of O(cap).
	// 0 means 1<<20.
	FlowStateCap int
	// Faults, when non-nil, injects deterministic worker faults
	// (stall / slow / kill) at batch boundaries. See FaultPlan.
	Faults *FaultPlan
	// Dispatchers selects the sharded data plane: N >= 1 ingress shards
	// partition flows by CRC16 over the 5-tuple and resolve packet→worker
	// lock-free against the control plane's current ForwardingView
	// snapshot. Consumed by NewSharded; New (the legacy single-dispatcher
	// engine, where the scheduler runs inline on the dispatch path)
	// rejects a non-zero value so the two modes cannot be mixed silently.
	Dispatchers int
	// IngressCap is each shard's ingress ring capacity (rounded up to a
	// power of two); 0 means 4096. Sharded engine only.
	IngressCap int
	// SampleEvery decimates the flow/load observations each shard feeds
	// the control plane: 1 in every SampleEvery packets is sampled; 0
	// means 1 (every packet). Sharded engine only.
	SampleEvery int
	// FeedbackCap bounds each shard's observation channel to the control
	// plane; when full, observations are dropped (counted in
	// Result.FeedbackDropped) rather than backpressuring the data plane.
	// 0 means 4096. Sharded engine only.
	FeedbackCap int
	// Pool, when non-nil, recycles packets through the data plane: the
	// dispatcher returns dropped packets to it and workers return each
	// consumed batch in one PutBatch after the batch's last handler call
	// and egress record. The arrival source must allocate its packets
	// from the same pool and must not retain a packet after handing it
	// to Dispatch; with a Handler set, the handler must not retain the
	// packet past its return. Zero-alloc steady state depends on this
	// being set.
	Pool *packet.Pool
	// DetectWindow enables the health monitor on the dispatcher path: a
	// worker holding backlog that makes no progress for this long is
	// quarantined and its state recovered onto the surviving workers.
	// 0 disables monitoring (crashed workers are then reaped only when
	// the dispatcher next touches them, or at Stop).
	//
	// Sizing: the window must comfortably exceed the longest legitimate
	// pause between retirements — the retired count ticks once per
	// consumed batch, so in particular a whole batch's emulated
	// WorkSleep or WorkSpin service time — or slow workers will be
	// declared dead spuriously.
	DetectWindow time.Duration
}

// flowState is the dispatcher's record of where a flow's packets go and
// how far into that worker's sequence space its newest packet sits.
// The pair doubles as the migration fence: the flow may only switch
// workers once the old worker's retired count passes seq. fencedAt is
// the span anchor: the runtime-clock instant the flow's first fenced
// packet was held (0 = no fence open), carried across dispatches until
// the fence releases so the hold duration is measurable end to end.
type flowState struct {
	core     int32
	seq      uint64
	fencedAt int64
}

// WorkerReport is one worker's end-of-run accounting.
type WorkerReport struct {
	ID         int
	Processed  uint64 // packets retired
	Dropped    uint64 // packets bound for this worker lost to a full ring (or stranded on it)
	OutOfOrder uint64 // out-of-order departures observed at this worker
	Batches    uint64 // non-empty ring consume batches
	Dead       bool   // worker was quarantined by fault recovery
}

// Result is the outcome of a runtime execution.
type Result struct {
	Dispatched   uint64 // packets offered to the scheduler
	Processed    uint64 // packets retired by workers
	Dropped      uint64 // packets lost to full rings (includes Stranded)
	OutOfOrder   uint64 // out-of-order departures (egress tracker)
	Migrations   uint64 // flows actually switched workers
	Fenced       uint64 // packets held on their old worker by a fence
	TrackedFlows int    // flows live in the reorder tracker at stop
	EvictedFlows uint64 // reorder-tracker watermarks evicted (bounded mode)
	// EstimatedOOO is the subset of OutOfOrder flagged by sketch-mode
	// trackers past the flow budget — one-sided over-estimates (the
	// sketch never misses a reordering but can over-report on bucket
	// collisions). 0 on exact runs.
	EstimatedOOO uint64
	// FlowBudgetHits counts budget-crossing degrade events: reorder
	// tracker shards switching exact→sketch plus fence tables switching
	// to hash-bucket granularity. 0 when the budget was never exceeded.
	FlowBudgetHits uint64
	Elapsed        time.Duration
	Workers        []WorkerReport
	// Series is non-nil when MetricsInterval was set.
	Series *stats.Series

	// Fault-tolerance accounting.
	WorkerStalls uint64 // stall detections (no progress for a full window)
	WorkerDeaths uint64 // workers quarantined (crashed or stalled past the window)
	Reinjected   uint64 // stranded packets re-dispatched onto live workers
	Recovered    uint64 // distinct flows remapped off dead workers by recovery
	Forced       uint64 // fences released against an undrainable dead worker
	Stranded     uint64 // packets unrecoverable at Stop (also counted in Dropped)
	// MaxDetect is the worst observed fault-to-quarantine latency. For a
	// stall it is bounded below by DetectWindow by construction.
	MaxDetect time.Duration
	// MaxFenceHold is the longest a drain fence held a migrating flow on
	// its old worker, first fenced packet to release (including forced
	// releases). Zero when no fence ever opened.
	MaxFenceHold time.Duration
	// MaxSnapshotStaleness is the oldest forwarding view any shard
	// resolved a batch against (age of the view at resolve time).
	// Sharded engine only; the legacy engine schedules inline and has
	// no snapshot to go stale.
	MaxSnapshotStaleness time.Duration

	// Sharded-engine accounting (zero under the legacy engine).
	Snapshots       uint64 // forwarding-view publishes by the control plane
	FeedbackDropped uint64 // sampled observations lost to full feedback channels
	Dispatchers     int    // ingress shards the run used (0 = legacy engine)
}

// routing outcome of one fence resolution (see DispatchTo).
const (
	routePlain = iota
	routeMigrated
	routeFenced
	routeForced
)

// Engine runs a scheduler against real goroutine workers. Construct
// with New, call Start, feed packets through Dispatch (or DispatchTo)
// from a single goroutine, then Stop to drain and collect the Result.
type Engine struct {
	cfg     Config
	workers []*worker
	staged  [][]*packet.Packet
	enqSeq  []uint64      // per-worker packets handed over (staged + pushed)
	burst   *burstScratch // flow-run grouping state for DispatchBurst
	chunk   chunkView     // the View DispatchBurst's scheduler calls see
	occ     []int         // per-worker occupancy cache, valid within one burst (-1 = stale)

	flows      *flowtab.Table[flowState]
	flowCap    int
	sweepHold  int          // new-flow inserts to skip sweeping for (after a futile sweep)
	coarse     *coarseFence // hash-bucket fencing past the flow budget (nil = exact)
	budgetable bool         // FlowBudget set and Memory allows degrading
	budgetHits atomic.Uint64
	tracker    *sharedTracker
	rec        *obs.Recorder
	tel        engineTel // zero value when Config.Telemetry is nil: every hist is a nil no-op

	start    time.Time // runtime clock epoch, stamped at New (pre-Start events need it)
	runStart time.Time // Start instant, for Elapsed
	ctx      context.Context
	wg       sync.WaitGroup

	dispatched atomic.Uint64
	dropped    atomic.Uint64
	perWDrop   []atomic.Uint64
	migrations atomic.Uint64
	fenced     atomic.Uint64

	// Fault-tolerance state. Only the dispatcher goroutine writes; the
	// counters are atomics so the admin /metrics scraper can read them
	// mid-run without racing it.
	dead       []bool        // quarantined workers (dispatcher-only)
	deadPub    []atomic.Bool // quarantine verdicts published for /healthz and scrapes
	live       []int         // indices of non-quarantined workers
	mon        *healthMon
	inRecovery bool
	stalls     atomic.Uint64
	deaths     atomic.Uint64
	reinjected atomic.Uint64
	recovered  atomic.Uint64
	forced     atomic.Uint64
	stranded   uint64
	maxDetect  atomic.Int64 // ns; single writer (dispatcher)

	maxFenceHold atomic.Int64 // ns; single writer (dispatcher)

	sampler     *obs.Sampler
	samplerStop chan struct{}
	samplerDone chan struct{}

	started, stopped bool
}

// healthMon is the dispatcher-path liveness detector's state.
type healthMon struct {
	window    time.Duration
	lastProc  []uint64    // retired count at the last beat
	lastBeat  []time.Time // last instant progress (or emptiness) was observed
	calls     uint64
	lastCheck time.Time
}

// New validates cfg and builds an engine (workers not yet running).
func New(cfg Config) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("runtime: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("runtime: Config.Sched is required")
	}
	if cfg.Dispatchers > 0 {
		return nil, fmt.Errorf("runtime: Config.Dispatchers=%d needs the sharded engine; use NewSharded", cfg.Dispatchers)
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = 256
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.WorkFactor == 0 {
		cfg.WorkFactor = 1
	}
	if cfg.FlowStateCap <= 0 {
		cfg.FlowStateCap = 1 << 20
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(cfg.Workers); err != nil {
			return nil, err
		}
	}
	var zero [packet.NumServices]npsim.ServiceDef
	if cfg.Services == zero {
		cfg.Services = npsim.DefaultServices()
	}
	budgetable := cfg.Memory == npsim.MemorySketch ||
		(cfg.FlowBudget > 0 && cfg.Memory == npsim.MemoryAuto)
	flowCap := cfg.FlowStateCap
	if cfg.FlowBudget > 0 && cfg.FlowBudget < flowCap {
		// The budget is the tighter bound: exact mode sweeps at it,
		// auto/sketch degrade to coarse fencing when sweeping cannot
		// hold the live-flow count under it.
		flowCap = cfg.FlowBudget
	}
	hint := 1 << 14
	if flowCap < hint {
		hint = flowCap
	}
	e := &Engine{
		cfg:        cfg,
		flows:      flowtab.New[flowState](hint),
		flowCap:    flowCap,
		budgetable: budgetable,
		tracker:    newSharedTracker(trackerConfig(cfg)),
		rec:        cfg.Recorder,
		perWDrop:   make([]atomic.Uint64, cfg.Workers),
		dead:       make([]bool, cfg.Workers),
		deadPub:    make([]atomic.Bool, cfg.Workers),
		// The clock epoch is stamped here, not at Start: recorders are
		// wired to e.Now at construction, and an event emitted before
		// Start must not be stamped against the zero time (whose
		// nanosecond distance overflows int64 into garbage).
		start: time.Now(),
	}
	if cfg.Memory == npsim.MemorySketch {
		// Bounded from the start: new flows fence at bucket granularity
		// immediately instead of waiting for the budget to be crossed.
		e.coarse = newCoarseFence(1)
	}
	if e.rec != nil {
		e.rec.SetClock(e.Now)
	}
	if cfg.Telemetry != nil {
		e.tel = newEngineTel(cfg.Telemetry, cfg.Workers, 1)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:         i,
			rings:      []*Ring{NewRing(cfg.RingCap)},
			retired:    make([]atomic.Uint64, 1),
			tracker:    e.tracker,
			now:        e.Now,
			work:       cfg.Work,
			workFactor: cfg.WorkFactor,
			services:   cfg.Services,
			handler:    cfg.Handler,
			pool:       cfg.Pool,
			tel:        e.tel.forWorkers(),
		}
		w.idleSince.Store(0)
		if cfg.Faults != nil {
			w.faults = cfg.Faults.forWorker(i)
		}
		if e.rec != nil {
			// Workers get private recorders (merged at Stop) because
			// obs.Recorder is single-writer by design.
			w.rec = obs.NewRecorder(obs.DefaultRingCap / cfg.Workers)
			w.rec.SetClock(e.Now)
		}
		e.workers = append(e.workers, w)
		e.staged = append(e.staged, make([]*packet.Packet, 0, cfg.Batch))
		e.live = append(e.live, i)
	}
	e.enqSeq = make([]uint64, cfg.Workers)
	e.burst = newBurstScratch()
	e.chunk.liveQueues = e
	e.occ = make([]int, cfg.Workers)
	if cfg.Telemetry != nil {
		// After the worker loop: the per-worker gauge closures capture
		// the constructed workers.
		registerEngineMetrics(cfg.Telemetry, e)
	}
	if cfg.DetectWindow > 0 {
		e.mon = &healthMon{
			window:   cfg.DetectWindow,
			lastProc: make([]uint64, cfg.Workers),
			lastBeat: make([]time.Time, cfg.Workers),
		}
	}
	return e, nil
}

// Now is the runtime clock: nanoseconds since New, as a sim.Time so
// schedulers written for the simulator read it unchanged.
func (e *Engine) Now() sim.Time {
	return sim.Time(time.Since(e.start).Nanoseconds())
}

// --- npsim.View (consulted by the scheduler on the dispatcher goroutine) ---

// NumCores returns the worker count.
func (e *Engine) NumCores() int { return len(e.workers) }

// QueueLen returns worker c's backlog as the scheduler should see it:
// ring occupancy plus in-service packets plus staged-but-unflushed ones.
// A quarantined worker reads as permanently full, which is how the
// scheduler's view is "shrunk" to the surviving cores without
// renumbering them.
func (e *Engine) QueueLen(c int) int {
	if e.dead[c] {
		return e.workers[c].rings[0].Cap()
	}
	return e.workers[c].queueLen() + len(e.staged[c])
}

// QueueCap returns the per-worker ring capacity.
func (e *Engine) QueueCap() int { return e.workers[0].rings[0].Cap() }

// IdleFor returns how long worker c has been out of work. A quarantined
// worker is never idle (it must not attract work or donate itself).
func (e *Engine) IdleFor(c int) sim.Time { return e.idleForAt(c, e.Now()) }

func (e *Engine) idleForAt(c int, now sim.Time) sim.Time {
	if e.dead[c] {
		return 0
	}
	if len(e.staged[c]) > 0 {
		return 0
	}
	return e.workers[c].idleFor(now)
}

// chunkView is the npsim.View a scheduler sees while an engine feeds it
// a batch of flow runs — a DispatchBurst chunk on Engine, a drained
// feedback batch on Sharded's control plane: the engine's own view with
// the clock frozen at the batch's one read, so a batch of many runs
// costs one clock read instead of one per run. Queue state stays live.
// Workers, recorders and the sampler keep the engine's Now.
type chunkView struct {
	liveQueues
	now sim.Time
}

// liveQueues is the clockless part of an engine's npsim.View: the queue
// state chunkView passes through, and idleness against a supplied clock.
type liveQueues interface {
	NumCores() int
	QueueLen(c int) int
	QueueCap() int
	idleForAt(c int, now sim.Time) sim.Time
}

func (v *chunkView) Now() sim.Time          { return v.now }
func (v *chunkView) IdleFor(c int) sim.Time { return v.idleForAt(c, v.now) }

// Start launches the workers (and the metrics sampler, if configured).
// ctx cancellation makes blocking enqueues give up; the run itself is
// ended by Stop.
func (e *Engine) Start(ctx context.Context) {
	if e.started {
		panic("runtime: Engine started twice")
	}
	e.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.runStart = time.Now()
	if e.mon != nil {
		for i := range e.mon.lastBeat {
			e.mon.lastBeat[i] = e.runStart
		}
		e.mon.lastCheck = e.runStart
	}
	for _, w := range e.workers {
		w := w
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			w.run(e.cfg.Batch)
		}()
	}
	if e.cfg.MetricsInterval > 0 {
		e.startSampler()
	}
}

// Dispatch offers one packet: the scheduler picks a worker, fencing
// adjusts for in-flight ordering, and the packet is enqueued. It
// reports whether the packet was accepted (false = dropped). Must be
// called from a single goroutine.
func (e *Engine) Dispatch(p *packet.Packet) bool {
	t := e.cfg.Sched.Target(p, e)
	if t < 0 || t >= len(e.workers) {
		panic(fmt.Sprintf("runtime: scheduler %q returned invalid worker %d", e.cfg.Sched.Name(), t))
	}
	return e.DispatchTo(p, t)
}

// DispatchTo routes a packet whose target was already decided (the
// conformance harness mirrors simulator decisions through this). Same
// contract as Dispatch.
//
// Route resolution runs in a loop because recovery can change the world
// mid-dispatch: a worker found dead is reaped (quarantined + drained)
// synchronously and the route re-resolved against the recovered flow
// table, so every decision is made on post-recovery state.
func (e *Engine) DispatchTo(p *packet.Packet, target int) bool {
	e.dispatched.Add(1)
	e.maybeCheckHealth()
	if e.tel.on {
		// Enqueued is sim-side bookkeeping the live path never reads;
		// reuse it as the dispatch timestamp the worker's latency and
		// ring-wait histograms measure against.
		p.Enqueued = e.Now()
	}
	return e.dispatchResolved(p, target)
}

// dispatchResolved is DispatchTo after the per-call bookkeeping
// (dispatch count, health cadence, telemetry stamp) — the burst path
// does those once per burst and re-enters here per packet when a flow
// run cannot take the batched fast path.
func (e *Engine) dispatchResolved(p *packet.Packet, target int) bool {
	h := crc.PacketHash(p)
	for {
		t := target
		if e.dead[t] {
			t = e.reroute(h, 0)
			if t < 0 {
				e.countDrop(p, target)
				return false
			}
		} else if e.workers[t].state.Load() == wsDead {
			// The scheduler picked a worker that died since the last
			// health check: reap it first, then re-resolve.
			e.reapDead(t)
			continue
		}
		kind := routePlain
		st, seen, coarse := e.fenceLookup(p.Flow, h)
		fencedAt, fenceSeq := int64(0), uint64(0)
		old, want := -1, t
		if seen {
			fencedAt = st.fencedAt
			fenceSeq = st.seq
		}
		if seen && int(st.core) != t {
			old = int(st.core)
			switch {
			case e.cfg.DisableFencing || e.workers[old].processed.Load() >= st.seq:
				// The old worker retired every packet of this flow (or we
				// were asked not to care): the switch is ordering-safe.
				kind = routeMigrated
			case !e.dead[old] && e.workers[old].state.Load() == wsDead:
				// The flow is fenced to a worker that died undetected.
				// Reap it — recovery re-injects the fenced backlog in
				// order and remaps the flow — then re-resolve.
				e.reapDead(old)
				continue
			case e.dead[old]:
				// Quarantined but undrainable (seize failed): the flow's
				// unretired packets are stuck forever. Holding the fence
				// would wedge the flow too; release it, counted, and
				// accept the bounded reordering risk.
				kind = routeForced
			default:
				// Fence: the flow stays on its old worker until the drain
				// completes, so its in-flight packets cannot be overtaken.
				kind = routeFenced
				t = old
			}
		}
		// Copy the key (and the event fields) before push: once the
		// packet is published to the ring the worker may retire it and
		// hand it back to the pool, so p must not be read again.
		f := p.Flow
		svc := p.Service
		ok, retry := e.push(p, t)
		if retry {
			continue
		}
		if !ok {
			return false
		}
		switch kind {
		case routeMigrated:
			e.migrations.Add(1)
			fencedAt = e.endFence(f, svc, t, old, fencedAt)
		case routeForced:
			e.forced.Add(1)
			e.migrations.Add(1)
			fencedAt = e.endFence(f, svc, t, old, fencedAt)
		case routeFenced:
			e.fenced.Add(1)
			if fencedAt == 0 {
				// First packet held by this fence: open the span. The
				// anchor rides in the flow table so the hold is measured
				// to the eventual release, however many dispatches later.
				fencedAt = int64(e.Now())
				if e.rec != nil {
					e.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
						Core: int32(old), Core2: int32(want), Flow: f, Val: int64(fenceSeq)})
				}
			}
		}
		if coarse {
			e.coarse.put(h, int32(t), e.enqSeq[t], fencedAt)
		} else {
			e.rememberFlowSeen(f, h, t, fencedAt, seen)
		}
		return true
	}
}

// fenceLookup resolves the fence state for a flow: the exact table is
// authoritative while the flow has an entry there; past the budget,
// flows without one are fenced at hash-bucket granularity. The third
// result reports which side the state (and the eventual update) lives
// on.
func (e *Engine) fenceLookup(f packet.FlowKey, h uint16) (flowState, bool, bool) {
	st, seen := e.flows.Get(f, h)
	if seen || e.coarse == nil {
		return st, seen, false
	}
	if b := e.coarse.ref(h); b.core >= 0 {
		return *b, true, true
	}
	return flowState{}, false, true
}

// endFence closes a fence span opened at fencedAt (0 = nothing open):
// it records the hold duration, tracks the maximum for Result, and
// emits the closing span event. Returns the new anchor (always 0).
// Dispatcher goroutine only.
func (e *Engine) endFence(f packet.FlowKey, svc packet.ServiceID, target, old int, fencedAt int64) int64 {
	if fencedAt == 0 {
		return 0
	}
	hold := int64(e.Now()) - fencedAt
	if hold < 0 {
		hold = 0
	}
	e.tel.fenceHold.Record(0, hold)
	if hold > e.maxFenceHold.Load() {
		e.maxFenceHold.Store(hold)
	}
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvFenceEnd, Service: int16(svc),
			Core: int32(target), Core2: int32(old), Flow: f, Val: hold})
	}
	return 0
}

// rememberFlow updates the flow's routing record, sweeping drained
// entries when the table outgrows its cap. A sweep that frees (almost)
// nothing — everything still in flight — is not retried for the next
// flowCap/16 inserts, keeping the at-cap insert path amortised O(1)
// instead of O(cap) per packet (the table overshoots the cap by at most
// that hold-off per window; see Config.FlowStateCap).
func (e *Engine) rememberFlow(f packet.FlowKey, h uint16, target int, fencedAt int64) {
	e.rememberFlowSeen(f, h, target, fencedAt, e.flows.Has(f, h))
}

// rememberFlowSeen is rememberFlow for callers that already probed the
// table (the burst path, which holds the result of its single per-run
// Get and skips the redundant Has).
func (e *Engine) rememberFlowSeen(f packet.FlowKey, h uint16, target int, fencedAt int64, seen bool) {
	if !seen && e.flows.Len() >= e.flowCap {
		if e.sweepHold > 0 {
			e.sweepHold--
		} else {
			swept := e.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
				return e.workers[st.core].processed.Load() >= st.seq
			})
			if swept < e.flowCap/64+1 {
				e.sweepHold = e.flowCap / 16
			}
		}
		if e.budgetable && e.coarse == nil && e.flows.Len() >= e.flowCap {
			// Sweeping cannot hold the live-flow count under the budget:
			// degrade. New flows fence at hash-bucket granularity from
			// here on; existing exact entries stay authoritative until
			// they drain (rememberFlowSeen is never called for a flow
			// without one again — fenceLookup routes those to buckets).
			e.coarse = newCoarseFence(1)
			e.budgetHits.Add(1)
			e.coarse.put(h, int32(target), e.enqSeq[target], fencedAt)
			return
		}
	}
	e.flows.Put(f, h, flowState{core: int32(target), seq: e.enqSeq[target], fencedAt: fencedAt})
}

// countDrop records one dropped packet bound for worker w.
func (e *Engine) countDrop(p *packet.Packet, w int) {
	e.dropped.Add(1)
	e.perWDrop[w].Add(1)
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
			Core: int32(w), Core2: -1, Flow: p.Flow,
			Val: int64(e.workers[w].rings[0].Len() + len(e.staged[w]))})
	}
	e.cfg.Pool.Put(p)
}

// push stages p for worker w, flushing when the stage buffer fills.
// Fullness is decided against a conservative occupancy estimate
// (ring + staged), so flushes never fail: the worker only drains the
// ring between dispatcher steps.
//
// Returns (accepted, retry). retry means the target worker died before
// or while the dispatcher was waiting on its ring — the caller must
// re-resolve the route; nothing was enqueued or counted.
func (e *Engine) push(p *packet.Packet, w int) (bool, bool) {
	wk := e.workers[w]
	if e.dead[w] || wk.state.Load() == wsDead {
		return false, true
	}
	for wk.rings[0].Len()+len(e.staged[w]) >= wk.rings[0].Cap() {
		if e.cfg.Policy == DropWhenFull || e.ctx.Err() != nil {
			e.countDrop(p, w)
			return false, false
		}
		// Backpressure: publish what we have and wait for the drain.
		// The health monitor keeps running here — if w itself is the
		// worker that died, recovery marks it and we bail out to retry
		// instead of waiting forever.
		e.flushWorker(w)
		e.maybeCheckHealth()
		if e.dead[w] || wk.state.Load() == wsDead {
			return false, true
		}
		// Asks for 5 µs, gets a kernel timer tick — about a millisecond
		// on a stock host — by which time the worker has usually drained
		// the whole ring (docs/PERFORMANCE.md, "Priced and left alone").
		time.Sleep(5 * time.Microsecond)
	}
	e.staged[w] = append(e.staged[w], p)
	e.enqSeq[w]++
	if len(e.staged[w]) >= e.cfg.Batch {
		e.flushWorker(w)
	}
	return true, false
}

// flushWorker publishes worker w's staged packets into its ring. By
// construction (see push) the ring always has room.
func (e *Engine) flushWorker(w int) {
	s := e.staged[w]
	if len(s) == 0 {
		return
	}
	n := e.workers[w].rings[0].PushBatch(s)
	if n != len(s) {
		panic(fmt.Sprintf("runtime: ring %d rejected %d staged packets", w, len(s)-n))
	}
	e.staged[w] = s[:0]
}

// Flush publishes every staged packet. Call when the arrival stream
// pauses (pacing gaps) so low-rate workers are not starved. Quarantined
// workers are skipped — their stage buffers were drained by recovery.
func (e *Engine) Flush() {
	for w := range e.staged {
		if e.dead[w] {
			continue
		}
		e.flushWorker(w)
	}
}

// --- health monitoring and recovery (dispatcher goroutine only) ---

// maybeCheckHealth runs the liveness check at a bounded cadence: every
// 64 dispatcher touches, and no more than ~8 times per detection
// window. Re-entry during a recovery is suppressed.
func (e *Engine) maybeCheckHealth() {
	if e.mon == nil || e.inRecovery {
		return
	}
	e.mon.calls++
	if e.mon.calls&63 != 0 {
		return
	}
	now := time.Now()
	if now.Sub(e.mon.lastCheck) < e.mon.window/8 {
		return
	}
	e.checkHealth(now)
}

// checkHealth scans the workers for definitive deaths (exited
// goroutines) and stalls (backlog held with no retirements for a full
// window). The last surviving worker is never quarantined on the stall
// heuristic — a wrong guess there would leave no data path at all.
func (e *Engine) checkHealth(now time.Time) {
	e.mon.lastCheck = now
	for i, w := range e.workers {
		if e.dead[i] {
			continue
		}
		if w.state.Load() == wsDead {
			e.reapDead(i)
			continue
		}
		if len(e.live) <= 1 {
			return
		}
		p := w.processed.Load()
		// Only backlog the worker can actually drain counts: ring +
		// in-service. Staged packets are held by the dispatcher — during
		// a long push-wait on some other worker's ring they would make
		// an idle, healthy worker look stalled.
		if p != e.mon.lastProc[i] || w.queueLen() == 0 {
			e.mon.lastProc[i] = p
			e.mon.lastBeat[i] = now
			continue
		}
		if stalled := now.Sub(e.mon.lastBeat[i]); stalled >= e.mon.window {
			e.stalls.Add(1)
			if e.rec != nil {
				e.rec.Emit(obs.Event{Kind: obs.EvWorkerStall, Service: -1,
					Core: int32(i), Core2: -1, Val: stalled.Nanoseconds()})
			}
			e.quarantine(i)
		}
	}
}

// reapDead quarantines a worker whose goroutine has definitively exited
// (kill fault). Idempotent.
func (e *Engine) reapDead(i int) {
	if !e.dead[i] {
		e.quarantine(i)
	}
}

// quarantine removes worker i from the live set, records the death and
// runs recovery. Dispatcher goroutine only.
func (e *Engine) quarantine(i int) {
	e.dead[i] = true
	e.deadPub[i].Store(true)
	e.rebuildLive()
	e.deaths.Add(1)
	w := e.workers[i]
	if fa := w.faultAt.Swap(0); fa > 0 {
		if d := int64(e.Now()) - fa; d > e.maxDetect.Load() {
			e.maxDetect.Store(d)
		}
	}
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvWorkerDead, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(w.queueLen() + len(e.staged[i]))})
	}
	e.recoverWorker(i)
}

// rebuildLive recomputes the surviving-worker index list.
func (e *Engine) rebuildLive() {
	e.live = e.live[:0]
	for i := range e.workers {
		if !e.dead[i] {
			e.live = append(e.live, i)
		}
	}
}

// recoverWorker is the ordering-safe recovery path for a quarantined
// worker: seize the ring's consumer role, re-inject the stranded
// backlog (ring, oldest first, then the stage buffer) onto live workers
// in arrival order, and purge the dead worker's flow-routing entries.
//
// Ordering argument: a flow resident on the dead worker has ALL of its
// unretired packets inside the stranded backlog (the fence guarantees a
// flow's in-flight packets live on exactly one worker), and they are
// drained in enqueue order. Re-injecting them in that order onto one
// live worker — and re-pointing the fence at it — therefore preserves
// per-flow order by construction; packets retired before the fault had
// already departed in order.
//
// If the worker cannot be seized (wedged mid-batch, holding popped
// packets), its backlog is unrecoverable: the worker stays quarantined,
// nothing is drained, and fences against it are force-released on the
// flows' next packets (counted in Result.Forced).
func (e *Engine) recoverWorker(i int) {
	e.inRecovery = true
	defer func() { e.inRecovery = false }()
	w := e.workers[i]
	// Recovery is a span: it runs dozens of ring pops and re-pushes, so
	// its duration — not just its occurrence — is what capacity planning
	// needs. Start/End bracket the instant EvRecovery kept for
	// compatibility with existing trace consumers.
	t0 := e.Now()
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvRecoveryStart, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(w.queueLen() + len(e.staged[i]))})
	}
	var reinjected uint64
	touched := make(map[packet.FlowKey]struct{})
	if w.seize() {
		buf := make([]*packet.Packet, e.cfg.Batch)
		for {
			n := w.rings[0].PopBatch(buf)
			if n == 0 {
				break
			}
			for j := 0; j < n; j++ {
				if e.reinject(buf[j], touched) {
					reinjected++
				}
				buf[j] = nil
			}
		}
		for _, p := range e.staged[i] {
			if e.reinject(p, touched) {
				reinjected++
			}
		}
		e.staged[i] = e.staged[i][:0]
		// Every still-in-flight entry was just re-pointed by reinject;
		// what remains on this worker is fully retired and safe to
		// forget (the next packet starts the flow fresh).
		retired := w.processed.Load()
		e.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
			return int(st.core) == i && retired >= st.seq
		})
		if e.coarse != nil {
			e.coarse.sweepDead(int32(i), retired)
		}
	}
	e.reinjected.Add(reinjected)
	e.recovered.Add(uint64(len(touched)))
	dur := int64(e.Now() - t0)
	e.tel.recovery.Record(0, dur)
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvRecovery, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(reinjected)})
		e.rec.Emit(obs.Event{Kind: obs.EvRecoveryEnd, Service: -1, Core: int32(i),
			Core2: -1, Val: dur})
	}
}

// reinject pushes one stranded packet onto a live worker, bypassing the
// fence (see recoverWorker for why that is ordering-safe), and
// re-points the flow's routing record so subsequent packets fence
// against the new home. Reports whether the packet was accepted.
func (e *Engine) reinject(p *packet.Packet, touched map[packet.FlowKey]struct{}) bool {
	h := crc.PacketHash(p)
	f := p.Flow // push publishes p; no reads after it
	for attempt := 0; ; attempt++ {
		t := e.reroute(h, attempt)
		if t < 0 {
			e.dropped.Add(1)
			e.cfg.Pool.Put(p)
			return false
		}
		ok, retry := e.push(p, t)
		if retry {
			continue
		}
		if !ok {
			return false
		}
		if e.coarse != nil && !e.flows.Has(f, h) {
			// Coarse-fenced flow: re-point its bucket. Rerouting is by
			// hash and a bucket is one hash value, so every member lands
			// on the same worker and the bucket fence stays sound.
			e.coarse.put(h, int32(t), e.enqSeq[t], 0)
		} else {
			e.flows.Put(f, h, flowState{core: int32(t), seq: e.enqSeq[t]})
		}
		touched[f] = struct{}{}
		return true
	}
}

// reroute deterministically picks a surviving worker for a flow by its
// cached hash, skipping workers whose goroutines have died but are not
// yet quarantined. Returns -1 when no live worker is reachable.
func (e *Engine) reroute(h uint16, attempt int) int {
	n := len(e.live)
	if n == 0 {
		return -1
	}
	hi := int(h) + attempt
	for i := 0; i < n; i++ {
		c := e.live[(hi+i)%n]
		if e.workers[c].state.Load() != wsDead {
			return c
		}
	}
	return -1
}

// Stop flushes, closes the rings, waits for the workers to drain, stops
// the sampler and returns the collected Result. The engine cannot be
// restarted.
func (e *Engine) Stop() *Result {
	if !e.started || e.stopped {
		panic("runtime: Stop on a non-running engine")
	}
	e.stopped = true
	// Reap workers that died after the last health check (or with
	// monitoring off) while re-injection is still possible — the
	// surviving workers are running until the rings close below.
	for i, w := range e.workers {
		if !e.dead[i] && w.state.Load() == wsDead {
			e.reapDead(i)
		}
	}
	e.Flush()
	for _, w := range e.workers {
		w.rings[0].Close()
	}
	e.wg.Wait()
	elapsed := time.Since(e.runStart)
	// Anything left in a ring or stage buffer now is stranded: its
	// worker died too late (or was undrainable) and every survivor has
	// exited. Count it as dropped so conservation holds.
	for i, w := range e.workers {
		s := uint64(w.rings[0].Len()) + uint64(len(e.staged[i]))
		if s > 0 {
			e.stranded += s
			e.dropped.Add(s)
			e.perWDrop[i].Add(s)
		}
	}
	if e.samplerStop != nil {
		close(e.samplerStop)
		<-e.samplerDone
	}
	e.mergeWorkerEvents()

	res := &Result{
		Dispatched:     e.dispatched.Load(),
		Dropped:        e.dropped.Load(),
		Migrations:     e.migrations.Load(),
		Fenced:         e.fenced.Load(),
		OutOfOrder:     e.tracker.outOfOrder(),
		TrackedFlows:   e.tracker.flows(),
		EvictedFlows:   e.tracker.evicted(),
		EstimatedOOO:   e.tracker.estimatedOOO(),
		FlowBudgetHits: e.tracker.budgetHits() + e.budgetHits.Load(),
		Elapsed:        elapsed,
		WorkerStalls:   e.stalls.Load(),
		WorkerDeaths:   e.deaths.Load(),
		Reinjected:     e.reinjected.Load(),
		Recovered:      e.recovered.Load(),
		Forced:         e.forced.Load(),
		Stranded:       e.stranded,
		MaxDetect:      time.Duration(e.maxDetect.Load()),
		MaxFenceHold:   time.Duration(e.maxFenceHold.Load()),
	}
	for i, w := range e.workers {
		res.Processed += w.processed.Load()
		res.Workers = append(res.Workers, WorkerReport{
			ID:         i,
			Processed:  w.processed.Load(),
			Dropped:    e.perWDrop[i].Load(),
			OutOfOrder: w.ooo.Load(),
			Batches:    w.batches.Load(),
			Dead:       e.dead[i],
		})
	}
	if e.sampler != nil {
		res.Series = e.sampler.Series()
	}
	return res
}

// mergeWorkerEvents folds the per-worker recorders' events into the
// main recorder, re-sorting the combined stream by timestamp (the
// dispatcher keeps emitting — fence spans, drops — while workers
// record, so interleaving is the norm, not the exception).
func (e *Engine) mergeWorkerEvents() {
	if e.rec == nil {
		return
	}
	var all []obs.Event
	for _, w := range e.workers {
		all = append(all, w.rec.Events()...)
	}
	e.rec.Merge(all)
}

// startSampler launches the wall-clock metrics goroutine. Probes read
// only atomics, so sampling never races the dispatcher or workers.
func (e *Engine) startSampler() {
	probes := make([]obs.Probe, 0, 2*len(e.workers)+4)
	for _, w := range e.workers {
		w := w
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("worker%d.q", w.id), Fn: func() float64 {
				return float64(w.queueLen())
			}},
			obs.RateProbe(fmt.Sprintf("worker%d.pps", w.id), w.processed.Load, nil),
		)
	}
	probes = append(probes,
		obs.RateProbe("dispatched", e.dispatched.Load, nil),
		obs.RateProbe("drops", e.dropped.Load, nil),
		obs.RateProbe("ooo", func() uint64 {
			var n uint64
			for _, w := range e.workers {
				n += w.ooo.Load()
			}
			return n
		}, nil),
		obs.RateProbe("fenced", e.fenced.Load, nil),
	)
	e.sampler = obs.NewSampler(sim.Time(e.cfg.MetricsInterval.Nanoseconds()), probes...)
	e.samplerStop = make(chan struct{})
	e.samplerDone = make(chan struct{})
	go func() {
		defer close(e.samplerDone)
		tick := time.NewTicker(e.cfg.MetricsInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				e.sampler.Sample(e.Now())
			case <-e.samplerStop:
				return
			}
		}
	}()
}
