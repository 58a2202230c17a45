package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// FlowBudget bounds the egress reorder tracker's per-flow state
	// according to Memory; 0 keeps it exact and unbounded. Under
	// MemoryAuto the budget is the live-flow count past which the
	// tracker switches to a sampled witness (exact watermarks for a
	// hashed sample of flows plus every flow a lane moved, see
	// npsim.TrackerConfig); under MemoryExact it is the tracker's FIFO
	// cap. The lanes' fence tables need no budget: they are bounded by
	// what the rings can hold in flight (docs/RUNTIME.md).
	FlowBudget int
	// Memory selects the tracker's bounding strategy past FlowBudget.
	Memory npsim.MemoryClass
	// Faults, when non-nil, injects deterministic worker faults
	// (stall / slow / kill) at batch boundaries. See FaultPlan.
	Faults *FaultPlan
	// Dispatchers selects the sharded data plane: N >= 1 ingress shards
	// partition flows by CRC16 over the 5-tuple and resolve packet→worker
	// lock-free against the current ForwardingView snapshot, training
	// the scheduler on their samples in batches under one lock. Consumed
	// by NewSharded; New (one dispatcher, the scheduler inline on the
	// dispatch path) rejects a non-zero value so the two modes cannot be
	// mixed silently.
	Dispatchers int
	// IngressCap is each shard's ingress ring capacity (rounded up to a
	// power of two); 0 means 4096. Sharded engine only.
	IngressCap int
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
	// declared dead spuriously. Under WorkSpin/WorkSleep a window that
	// does not exceed Batch × the slowest service's time for a 1500-byte
	// frame × WorkFactor is a configuration error.
	DetectWindow time.Duration
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
	// EstimatedOOO is the subset of OutOfOrder counted while tracker
	// shards sampled past the flow budget: real reorderings of the flows
	// the witness held, never a false alarm, but blind to the flows it
	// did not hold. 0 on exact runs.
	EstimatedOOO uint64
	// WitnessLevel is the highest control-group level across tracker
	// shards: the sampled witness held every moved flow plus a 2^-level
	// hashed sample of the rest. 0 while exact.
	WitnessLevel int
	// FlowBudgetHits counts reorder tracker shards that switched
	// exact→witness. 0 when the budget was never exceeded.
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
	// MaxSnapshotStaleness is always 0: shards train and adopt views
	// themselves, so no view is older than their last training pass. Kept
	// until the benchmark that reads it can change (ROADMAP item 5(c)).
	MaxSnapshotStaleness time.Duration
	// Snapshots counts the forwarding views taken: publishes by Sharded's
	// training passes and quarantines, refreshes by Engine when its
	// scheduler publishes views. 0 under a scheduler that cannot.
	Snapshots uint64

	// FeedbackDropped is always 0: no sample is dropped on its way to the
	// scheduler. Kept for the same reason as MaxSnapshotStaleness.
	FeedbackDropped uint64
	Dispatchers     int // ingress shards the run used (0 = Engine)
}

// plane is what both engines are built on: the validated config, the
// workers and their egress tracker, the runtime clock, the authoritative
// worker-health verdicts, and the lifecycle, accounting and telemetry
// that do not depend on how packets reach the lanes.
type plane struct {
	cfg     Config
	bs      npsim.BurstScheduler   // cfg.Sched, when it trains on a run's weight (TargetN); nil otherwise
	sp      npsim.SnapshotProvider // cfg.Sched, when it publishes forwarding views; nil otherwise
	workers []*worker
	nlanes  int     // rings per worker
	lanes   []*lane // Engine: one; Sharded: one per shard
	tracker *sharedTracker
	rec     *obs.Recorder
	tel     engineTel // zero value when Config.Telemetry is nil: every hist is a nil no-op

	start    time.Time // runtime clock epoch, stamped at construction (pre-Start events need it)
	runStart time.Time // Start instant, for Elapsed
	ctx      context.Context
	wg       sync.WaitGroup // workers

	dispatched   atomic.Uint64
	ingressDrops atomic.Uint64 // lost before reaching a lane (Sharded ingress rings)
	perWDrop     []atomic.Uint64

	// Health verdicts have one writer — the dispatcher goroutine on
	// Engine, the holder of Sharded.mu on Sharded. deadPub republishes
	// them for /healthz and scrapes; the counters are atomics for the
	// same reason.
	verdicts  []workerHealth
	liveIdx   []int // indices of whAlive workers
	deadPub   []atomic.Bool
	mon       *healthMon
	stalls    atomic.Uint64
	deaths    atomic.Uint64
	maxDetect atomic.Int64 // ns; single writer

	maxFenceHold atomic.Int64 // ns; lanes race through noteMax

	snapshots atomic.Uint64 // forwarding views taken (takeView); read by scrapers and Stop

	sampler     *obs.Sampler
	samplerStop chan struct{}
	samplerDone chan struct{}

	started, stopped bool
}

// healthMon is the stall detector's state (Config.DetectWindow).
type healthMon struct {
	window    time.Duration
	lastProc  []uint64    // retired count at the last beat
	lastBeat  []time.Time // last instant progress (or emptiness) was observed
	calls     uint64      // Engine's dispatcher-touch cadence counter
	lastCheck time.Time
}

// newPlane validates cfg, fills its defaults and builds the workers,
// each with one ring per lane (nothing running yet).
func newPlane(cfg Config, nlanes int) (*plane, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("runtime: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("runtime: Config.Sched is required")
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
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(cfg.Workers); err != nil {
			return nil, err
		}
	}
	var zero [packet.NumServices]npsim.ServiceDef
	if cfg.Services == zero {
		cfg.Services = npsim.DefaultServices()
	}
	if err := checkDetectWindow(&cfg); err != nil {
		return nil, err
	}
	p := &plane{
		cfg:      cfg,
		nlanes:   nlanes,
		tracker:  newSharedTracker(trackerConfig(cfg)),
		rec:      cfg.Recorder,
		perWDrop: make([]atomic.Uint64, cfg.Workers),
		verdicts: make([]workerHealth, cfg.Workers),
		deadPub:  make([]atomic.Bool, cfg.Workers),
		// The clock epoch is stamped here, not at Start: recorders are
		// wired to Now at construction, and an event emitted before Start
		// must not be stamped against the zero time (whose nanosecond
		// distance overflows int64 into garbage).
		start: time.Now(),
	}
	p.bs, _ = cfg.Sched.(npsim.BurstScheduler)
	p.sp, _ = cfg.Sched.(npsim.SnapshotProvider)
	if p.rec != nil {
		p.rec.SetClock(p.Now)
	}
	if cfg.Telemetry != nil {
		p.tel = newEngineTel(cfg.Telemetry, cfg.Workers, nlanes)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:         i,
			rings:      make([]*Ring, nlanes),
			retired:    make([]atomic.Uint64, nlanes),
			tracker:    p.tracker,
			now:        p.Now,
			work:       cfg.Work,
			workFactor: cfg.WorkFactor,
			services:   cfg.Services,
			handler:    cfg.Handler,
			pool:       cfg.Pool,
			tel:        p.tel.forWorkers(),
		}
		for s := range w.rings {
			w.rings[s] = NewRing(cfg.RingCap)
		}
		w.idleSince.Store(0)
		if cfg.Faults != nil {
			w.faults = cfg.Faults.forWorker(i)
		}
		if p.rec != nil {
			w.rec = p.newRecorder(cfg.Workers)
		}
		p.workers = append(p.workers, w)
		p.liveIdx = append(p.liveIdx, i)
	}
	if cfg.Telemetry != nil {
		// After the worker loop: the per-worker gauges capture the workers.
		registerMetrics(cfg.Telemetry, p)
	}
	if cfg.DetectWindow > 0 {
		p.mon = &healthMon{
			window:   cfg.DetectWindow,
			lastProc: make([]uint64, cfg.Workers),
			lastBeat: make([]time.Time, cfg.Workers),
		}
	}
	return p, nil
}

// maxFrameBytes is the frame size DetectWindow is checked against: an
// Ethernet MTU, the largest frame the tree's traffic models emit
// (trace.DefaultSizes).
const maxFrameBytes = 1500

// checkDetectWindow rejects, under WorkSpin/WorkSleep, a DetectWindow
// that one emulated batch can outlast: the retired count ticks once per
// batch, so the monitor would quarantine healthy workers. The batch is
// priced at the slowest service's time for a maxFrameBytes frame. cfg
// has its defaults filled in.
func checkDetectWindow(cfg *Config) error {
	if cfg.DetectWindow <= 0 || (cfg.Work != WorkSpin && cfg.Work != WorkSleep) {
		return nil
	}
	var per time.Duration
	for _, d := range cfg.Services {
		per = max(per, time.Duration(d.ProcTime(maxFrameBytes)))
	}
	batch := time.Duration(float64(cfg.Batch) * float64(per) * cfg.WorkFactor)
	if cfg.DetectWindow > batch {
		return nil
	}
	return fmt.Errorf("runtime: DetectWindow %v does not exceed one emulated batch, %v (%d packets of up to %v × WorkFactor %g): healthy workers would be declared dead",
		cfg.DetectWindow, batch, cfg.Batch, per, cfg.WorkFactor)
}

// newRecorder builds a private recorder on the runtime clock for one of
// share goroutines (obs.Recorder is single-writer by design); merged
// into the main recorder at Stop.
func (p *plane) newRecorder(share int) *obs.Recorder {
	r := obs.NewRecorder(obs.DefaultRingCap / share)
	r.SetClock(p.Now)
	return r
}

// Now is the runtime clock: nanoseconds since construction, as a
// sim.Time so schedulers written for the simulator read it unchanged.
func (p *plane) Now() sim.Time {
	return sim.Time(time.Since(p.start).Nanoseconds())
}

// --- npsim.View (consulted by the scheduler on the verdicts' goroutine) ---

// NumCores returns the worker count.
func (p *plane) NumCores() int { return len(p.workers) }

// QueueLen returns worker c's drainable backlog: ring occupancy across
// every lane's ring plus in-service packets. Lane-local stage buffers
// are private to each shard goroutine, so under Sharded the view can
// under-read by at most Dispatchers×Batch packets — the same order of
// error a hardware scheduler has against in-flight DMA. A quarantined
// worker reads as permanently full, which is how the scheduler's view
// is "shrunk" to the surviving cores without renumbering them.
func (p *plane) QueueLen(c int) int {
	if p.verdicts[c] != whAlive {
		return p.QueueCap()
	}
	return p.workers[c].queueLen()
}

// QueueCap returns a worker's total buffering: ring capacity times the
// lane count.
func (p *plane) QueueCap() int { return p.workers[0].rings[0].Cap() * p.nlanes }

// IdleFor returns how long worker c has been out of work. A quarantined
// worker is never idle (it must not attract work or donate itself).
func (p *plane) IdleFor(c int) sim.Time { return p.idleForAt(c, p.Now()) }

func (p *plane) idleForAt(c int, now sim.Time) sim.Time {
	if p.verdicts[c] != whAlive {
		return 0
	}
	return p.workers[c].idleFor(now)
}

// chunkView is the npsim.View a scheduler sees while an engine feeds it
// a batch of flow runs — a DispatchBurst chunk on Engine, a shard's
// training pass on Sharded: the engine's own view with the clock frozen
// at the batch's one read, so a batch of many runs costs one clock read
// instead of one per run. Queue state stays live.
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

// checkTarget passes a scheduler's (or its snapshot's) answer through,
// panicking on a worker index that does not exist.
func (p *plane) checkTarget(t int) int {
	if uint(t) >= uint(len(p.workers)) {
		p.badTarget(t)
	}
	return t
}

func (p *plane) badTarget(t int) {
	panic(fmt.Sprintf("runtime: scheduler %q routed to invalid worker %d", p.cfg.Sched.Name(), t))
}

// targetN shows the scheduler a flow run of pkt's flow at sample weight
// n > 0 and returns its decision: one TargetN call for a
// npsim.BurstScheduler, n Target calls (the last answer stands) for any
// other.
func (p *plane) targetN(pkt *packet.Packet, n int, v npsim.View) int {
	if p.bs != nil {
		return p.bs.TargetN(pkt, n, v)
	}
	t := 0
	for ; n > 0; n-- {
		t = p.cfg.Sched.Target(pkt, v)
	}
	return t
}

// takeView snapshots the scheduler's forwarding state as of now, for an
// owner that resolves flow runs against a view (p.sp != nil), and counts
// it. Returns the view and the generation it was taken at.
func (p *plane) takeView(now sim.Time) (npsim.Forwarder, uint64) {
	fw := p.sp.Snapshot(now)
	gen := p.sp.Generation()
	p.snapshots.Add(1)
	if p.rec != nil {
		p.rec.Emit(obs.Event{Kind: obs.EvSnapshotPublish, Service: -1, Core: -1,
			Core2: -1, Val: int64(gen)})
	}
	return fw, gen
}

// begin marks the run started and launches the workers. ctx
// cancellation makes blocking enqueues give up; the run itself is ended
// by Stop.
func (p *plane) begin(ctx context.Context) {
	if p.started {
		panic("runtime: engine started twice")
	}
	p.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	p.ctx = ctx
	p.runStart = time.Now()
	if p.mon != nil {
		for i := range p.mon.lastBeat {
			p.mon.lastBeat[i] = p.runStart
		}
		p.mon.lastCheck = p.runStart
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run(p.cfg.Batch)
		}()
	}
}

// end marks the run stopped; an engine cannot be restarted.
func (p *plane) end() {
	if !p.started || p.stopped {
		panic("runtime: Stop on a non-running engine")
	}
	p.stopped = true
}

// --- health (verdicts' goroutine only) ---

// scanHealth quarantines every worker whose goroutine has exited and —
// at most ~8 times per detection window — every worker that held
// backlog without retiring anything for a full window. The last live
// worker is never quarantined on the stall heuristic: a wrong guess
// there would leave no data path at all.
func (p *plane) scanHealth(now time.Time, quarantine func(int)) {
	stallScan := p.mon != nil && now.Sub(p.mon.lastCheck) >= p.mon.window/8
	if stallScan {
		p.mon.lastCheck = now
	}
	for i, w := range p.workers {
		if p.verdicts[i] != whAlive {
			continue
		}
		if w.state.Load() == wsDead {
			quarantine(i)
			continue
		}
		if !stallScan || len(p.liveIdx) <= 1 {
			continue
		}
		n := w.processed.Load()
		// Only backlog the worker can actually drain counts: ring +
		// in-service. Staged packets are held by a lane — during a long
		// push-wait on some other worker's ring they would make an idle,
		// healthy worker look stalled.
		if n != p.mon.lastProc[i] || w.queueLen() == 0 {
			p.mon.lastProc[i] = n
			p.mon.lastBeat[i] = now
			continue
		}
		if stalled := now.Sub(p.mon.lastBeat[i]); stalled >= p.mon.window {
			p.stalls.Add(1)
			if p.rec != nil {
				p.rec.Emit(obs.Event{Kind: obs.EvWorkerStall, Service: -1,
					Core: int32(i), Core2: -1, Val: stalled.Nanoseconds()})
			}
			quarantine(i)
		}
	}
}

// markDead removes worker i from the live set and records the death.
// Its rings' consumer role is seized when possible (whSeized: every
// lane then drains its own ring); a worker wedged mid-batch cannot be
// (whWedged).
func (p *plane) markDead(i int) {
	w := p.workers[i]
	if p.rec != nil {
		p.rec.Emit(obs.Event{Kind: obs.EvWorkerDead, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(w.queueLen())})
	}
	p.verdicts[i] = whWedged
	if w.seize() {
		p.verdicts[i] = whSeized
	}
	p.deadPub[i].Store(true)
	p.liveIdx = p.liveIdx[:0]
	for j, v := range p.verdicts {
		if v == whAlive {
			p.liveIdx = append(p.liveIdx, j)
		}
	}
	p.deaths.Add(1)
	if fa := w.faultAt.Swap(0); fa > 0 {
		noteMax(&p.maxDetect, int64(p.Now())-fa)
	}
}

// reapLate quarantines, through the owner's quarantine, every worker
// that died after the last health check (or with monitoring off). Stop
// calls it once no lane produces any more, while re-injection is still
// possible: the surviving workers run until finish closes the rings.
func (p *plane) reapLate(quarantine func(int)) {
	for i, w := range p.workers {
		if p.verdicts[i] == whAlive && w.state.Load() == wsDead {
			quarantine(i)
		}
	}
}

// Health reports per-worker liveness for /healthz: a worker is alive
// until it is quarantined or its goroutine exits. Safe from any
// goroutine.
func (p *plane) Health() []telemetry.WorkerState {
	out := make([]telemetry.WorkerState, len(p.workers))
	for i := range p.workers {
		out[i] = telemetry.WorkerState{ID: i, Alive: p.up(i)}
	}
	return out
}

func (p *plane) up(i int) bool {
	return !p.deadPub[i].Load() && p.workers[i].state.Load() != wsDead
}

// --- end of run ---

// finish ends a run whose lanes have stopped producing: publish what
// they staged for live workers, close the rings, wait for the workers
// to drain and exit, stop the sampler, fold the private recorders
// (workers, lanes, extra) into the main one and collect the Result.
func (p *plane) finish(extra ...*obs.Recorder) *Result {
	for _, l := range p.lanes {
		l.flushAll()
	}
	for _, w := range p.workers {
		for _, r := range w.rings {
			r.Close()
		}
	}
	p.wg.Wait()
	elapsed, tt := time.Since(p.runStart), p.tracker.totals()
	// Anything left in a ring or stage buffer now is stranded: its worker
	// died too late (or was undrainable) and every survivor has exited.
	// Count it as dropped, on the lane that queued it, so conservation
	// holds in Result and on a scrape alike.
	var stranded uint64
	for _, l := range p.lanes {
		for i, w := range p.workers {
			if s := uint64(w.rings[l.id].Len() + len(l.staged[i])); s > 0 {
				stranded += s
				l.n[cDropped].Add(s)
				p.perWDrop[i].Add(s)
			}
		}
	}
	if p.samplerStop != nil {
		close(p.samplerStop)
		<-p.samplerDone
	}
	if p.rec != nil {
		// Re-sorted by timestamp on merge: lanes keep emitting — fence
		// spans, drops — while workers record, so interleaving is the
		// norm, not the exception.
		var all []obs.Event
		for _, w := range p.workers {
			all = append(all, w.rec.Events()...)
		}
		for _, l := range p.lanes {
			if l.rec != p.rec {
				extra = append(extra, l.rec)
			}
		}
		for _, r := range extra {
			all = append(all, r.Events()...)
		}
		p.rec.Merge(all)
	}

	res := &Result{
		Dispatched:     p.dispatched.Load(),
		Dropped:        p.droppedTotal(),
		Migrations:     p.total(cMigrations),
		Fenced:         p.total(cFenced),
		OutOfOrder:     tt.ooo,
		TrackedFlows:   tt.flows,
		EvictedFlows:   tt.evicted,
		EstimatedOOO:   tt.estimated,
		WitnessLevel:   tt.level,
		FlowBudgetHits: tt.budgetHits,
		Elapsed:        elapsed,
		WorkerStalls:   p.stalls.Load(),
		WorkerDeaths:   p.deaths.Load(),
		Reinjected:     p.total(cReinjected),
		Recovered:      p.total(cRecovered),
		Forced:         p.total(cForced),
		Stranded:       stranded,
		MaxDetect:      time.Duration(p.maxDetect.Load()),
		MaxFenceHold:   time.Duration(p.maxFenceHold.Load()),
		Snapshots:      p.snapshots.Load(),
	}
	for i, w := range p.workers {
		res.Processed += w.processed.Load()
		res.Workers = append(res.Workers, WorkerReport{
			ID:         i,
			Processed:  w.processed.Load(),
			Dropped:    p.perWDrop[i].Load(),
			OutOfOrder: w.ooo.Load(),
			Batches:    w.batches.Load(),
			Dead:       p.verdicts[i] != whAlive,
		})
	}
	if p.sampler != nil {
		res.Series = p.sampler.Series()
	}
	return res
}

// total sums one route counter across the lanes.
func (p *plane) total(c int) uint64 {
	var n uint64
	for _, l := range p.lanes {
		n += l.n[c].Load()
	}
	return n
}

func (p *plane) droppedTotal() uint64 {
	return p.ingressDrops.Load() + p.total(cDropped)
}

func (p *plane) processedTotal() uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.processed.Load()
	}
	return n
}

func (p *plane) oooTotal() uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.ooo.Load()
	}
	return n
}

// startSampler launches the wall-clock metrics goroutine when
// MetricsInterval is set: per-worker depth and rate, the engine's extra
// probes, then the run-wide rates. Probes read only atomics, so
// sampling never races the lanes or workers.
func (p *plane) startSampler(extra ...obs.Probe) {
	if p.cfg.MetricsInterval <= 0 {
		return
	}
	probes := make([]obs.Probe, 0, 2*len(p.workers)+len(extra)+4)
	for _, w := range p.workers {
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("worker%d.q", w.id), Fn: func() float64 {
				return float64(w.queueLen())
			}},
			obs.RateProbe(fmt.Sprintf("worker%d.pps", w.id), w.processed.Load, nil),
		)
	}
	probes = append(probes, extra...)
	probes = append(probes,
		obs.RateProbe("dispatched", p.dispatched.Load, nil),
		obs.RateProbe("drops", p.droppedTotal, nil),
		obs.RateProbe("ooo", p.oooTotal, nil),
		obs.RateProbe("fenced", func() uint64 { return p.total(cFenced) }, nil),
	)
	p.sampler = obs.NewSampler(sim.Time(p.cfg.MetricsInterval.Nanoseconds()), probes...)
	p.samplerStop = make(chan struct{})
	p.samplerDone = make(chan struct{})
	go func() {
		defer close(p.samplerDone)
		tick := time.NewTicker(p.cfg.MetricsInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.sampler.Sample(p.Now())
			case <-p.samplerStop:
				return
			}
		}
	}()
}

// Engine runs a scheduler against real goroutine workers: one lane,
// the scheduler run inline on the dispatcher goroutine, and worker
// health decided synchronously there too. A scheduler that publishes
// forwarding views (npsim.SnapshotProvider) is run as a shard runs it:
// flow runs resolve against the engine's current view, and the
// scheduler sees only the lane's sample; any other scheduler decides
// every run (decide). Construct with New, call Start, feed packets
// through Dispatch (or DispatchTo / DispatchBurst) from a single
// goroutine, then Stop to drain and collect the Result.
type Engine struct {
	*lane
	chunk chunkView // the View DispatchBurst's scheduler calls see
	// The view flow runs resolve against when the scheduler publishes
	// them: taken at Start, retaken whenever a sampled run moves the
	// scheduler's generation past gen.
	fwd        npsim.Forwarder
	gen        uint64
	inRecovery bool // a drain is running: suppress re-entrant health checks
}

// New validates cfg and builds an engine (workers not yet running).
func New(cfg Config) (*Engine, error) {
	if cfg.Dispatchers > 0 {
		return nil, fmt.Errorf("runtime: Config.Dispatchers=%d needs the sharded engine; use NewSharded", cfg.Dispatchers)
	}
	p, err := newPlane(cfg, 1)
	if err != nil {
		return nil, err
	}
	e := &Engine{}
	e.lane = newLane(p, 0, e, p.rec)
	e.chunk.liveQueues = e
	return e, nil
}

// QueueLen adds what the dispatcher has staged but not yet flushed to
// the plane's reading: here the scheduler runs on the staging goroutine
// and can see it.
func (e *Engine) QueueLen(c int) int {
	if e.health[c] != whAlive {
		return e.QueueCap()
	}
	return e.workers[c].queueLen() + len(e.staged[c])
}

// IdleFor: a worker with staged packets is about to be busy.
func (e *Engine) IdleFor(c int) sim.Time { return e.idleForAt(c, e.Now()) }

func (e *Engine) idleForAt(c int, now sim.Time) sim.Time {
	if len(e.staged[c]) > 0 {
		return 0
	}
	return e.plane.idleForAt(c, now)
}

// Start takes the first forwarding view (when the scheduler publishes
// them) and launches the workers (and the metrics sampler, if
// configured). ctx cancellation makes blocking enqueues give up; the
// run itself is ended by Stop.
func (e *Engine) Start(ctx context.Context) {
	e.begin(ctx)
	if e.sp != nil {
		e.fwd, e.gen = e.takeView(e.Now())
	}
	e.startSampler()
}

// Dispatch offers one packet: the scheduler picks a worker, fencing
// adjusts for in-flight ordering, and the packet is enqueued. It
// reports whether the packet was accepted (false = dropped). Must be
// called from a single goroutine.
func (e *Engine) Dispatch(p *packet.Packet) bool {
	return e.DispatchTo(p, e.decide(p, 1, e))
}

// decide picks the worker for a flow run of n packets headed by p, on
// both entry points (Dispatch is a run of 1). Under a scheduler that
// publishes views it does what a shard and its control plane do
// together: a run the lane's sample passes over resolves against the
// current view, and a sampled run is shown to the scheduler at its
// sampled weight (plane.targetN), whose answer it follows. When that
// moved the scheduler's generation, the view is retaken before the next
// run, so a migration decided on a sampled run reaches the flow's very
// next run. The view changes only then: a migration-table entry that
// outlives its TTL keeps forwarding until the next retake, as on a
// shard. A plain Scheduler decides every run, from the run's first
// packet.
func (e *Engine) decide(p *packet.Packet, n int, v npsim.View) int {
	if e.sp == nil {
		return e.checkTarget(e.cfg.Sched.Target(p, v))
	}
	w := e.sample.weigh(uint32(n))
	if w == 0 {
		return e.checkTarget(e.fwd.Forward(p))
	}
	t := e.targetN(p, int(w), v)
	if e.sp.Generation() != e.gen {
		e.fwd, e.gen = e.takeView(v.Now())
	}
	return e.checkTarget(t)
}

// DispatchTo routes a packet whose target was already decided (the
// conformance harness mirrors simulator decisions through this). Same
// contract as Dispatch.
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

// Flush publishes every staged packet. Call when the arrival stream
// pauses (pacing gaps) so low-rate workers are not starved.
func (e *Engine) Flush() { e.flushAll() }

// reresolve (laneOwner): health is decided on this goroutine, so a
// worker found dead is quarantined and drained before the route is
// decided again; the scheduler's target stands.
func (e *Engine) reresolve(_ *packet.Packet, target, dead int) int {
	if dead >= 0 {
		e.quarantine(dead)
	}
	return target
}

// ringFull (laneOwner): keep the health monitor running while blocked.
func (e *Engine) ringFull() { e.maybeCheckHealth() }

// maybeCheckHealth runs the liveness scan at a bounded cadence: every
// 64 dispatcher touches, and no more than ~8 times per detection
// window. With monitoring off (DetectWindow 0) crashed workers are
// reaped only when the dispatcher next touches them, or at Stop.
func (e *Engine) maybeCheckHealth() {
	if e.mon == nil || e.inRecovery {
		return
	}
	e.mon.calls++
	if e.mon.calls&63 != 0 {
		return
	}
	if now := time.Now(); now.Sub(e.mon.lastCheck) >= e.mon.window/8 {
		e.scanHealth(now, e.quarantine)
	}
}

// quarantine takes worker i out of service and recovers what it held
// onto the surviving workers, synchronously.
func (e *Engine) quarantine(i int) {
	e.markDead(i)
	e.live = e.liveIdx
	outer := e.inRecovery // a drain can recover a second worker (reinject)
	e.inRecovery = true
	e.drain(i)
	e.inRecovery = outer
}

// Stop flushes, closes the rings, waits for the workers to drain, stops
// the sampler and returns the collected Result. The engine cannot be
// restarted.
func (e *Engine) Stop() *Result {
	e.end()
	e.reapLate(e.quarantine)
	return e.finish()
}
