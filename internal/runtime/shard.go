package runtime

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// This file is the sharded data plane: the runtime's answer to the
// paper's hardware split between a line-rate lookup path and a slow
// control processor that rewrites the lookup tables.
//
// Topology: one ingress goroutine (the caller of Ingest) feeds N shard
// goroutines through per-shard SPSC ingress rings, partitioning flows
// by CRC16 over the 5-tuple — the same hash the map tables use — so a
// flow's packets always traverse the same shard in arrival order.
// Each shard resolves packet→worker with zero locks against an
// immutable ForwardingView published through an atomic pointer, and
// owns a private SPSC ring into every worker: the full data plane is a
// lock-free N×W crossbar of single-producer/single-consumer rings.
//
// The control plane is one goroutine that owns the real scheduler. It
// consumes sampled flow observations from bounded per-shard feedback
// rings (never blocking the shards; a within-burst flow run travels as
// one aggregated record), runs the scheduler's full logic — AFD
// updates, imbalance checks, steals, splits/merges — for its side
// effects, and republishes a fresh snapshot whenever the scheduler's
// generation counter moves. Staleness is therefore bounded by one
// control-plane loop iteration plus however long the feedback sample
// that triggers a mutation sits in its ring.
//
// Ordering: per-flow order is preserved by construction. A flow maps
// to exactly one shard (flow-affine ingress), the shard enqueues its
// packets into exactly one ring at a time, and the per-shard migration
// fence — enqueue seq per (shard, worker) checked against the worker's
// per-ring retired count — refuses to move the flow while any of its
// packets are unretired on the old worker. Snapshot staleness can
// delay a migration by one publish; it can never reorder a flow.
type Sharded struct {
	cfg     Config
	workers []*worker
	shards  []*shard

	tracker *sharedTracker
	rec     *obs.Recorder // CP-owned during the run; merged into at Stop
	ingRec  *obs.Recorder // ingress-goroutine drop events
	tel     engineTel     // zero value when Config.Telemetry is nil
	sp      npsim.SnapshotProvider

	view     atomic.Pointer[dataPlaneView]
	feedback []*feedRing

	// ingScratch stages an IngestBurst's packets per shard (ingress
	// goroutine only), so a multi-shard burst costs one ring reservation
	// per (shard, burst).
	ingScratch [][]*packet.Packet

	start    time.Time
	runStart time.Time
	ctx      context.Context
	wg       sync.WaitGroup // workers
	swg      sync.WaitGroup // shards
	cpStop   chan struct{}
	cpDone   chan struct{}

	dispatched   atomic.Uint64
	ingressDrops atomic.Uint64
	perWDrop     []atomic.Uint64

	// Control-plane-goroutine-only writers; the counters are atomics so
	// the admin /metrics scraper can read them mid-run.
	health    []workerHealth
	liveIdx   []int
	mon       *healthMon
	pubGen    uint64
	snapshots atomic.Uint64
	stalls    atomic.Uint64
	deaths    atomic.Uint64
	maxDetect atomic.Int64 // ns; single writer (control plane)

	maxFenceHold atomic.Int64 // ns; shard writers race via load-compare-store, see noteMax
	maxStaleness atomic.Int64 // ns; same
	// scanEpoch counts completed health scans; shards wait on it at
	// shutdown so a death that precedes ingress close is always
	// quarantined (and drained) before the shards exit.
	scanEpoch atomic.Uint64

	sampler     *obs.Sampler
	samplerStop chan struct{}
	samplerDone chan struct{}

	started, stopped bool
}

// workerHealth is the control plane's verdict on a worker, carried in
// every published view so the shards act on a consistent picture.
type workerHealth uint8

const (
	// whAlive: route to it normally.
	whAlive workerHealth = iota
	// whSeized: quarantined and drainable — each shard must drain its
	// own ring into live workers (in order) when it observes this state.
	whSeized
	// whWedged: quarantined but seizure failed (wedged mid-batch); its
	// backlog is unrecoverable and fences against it are force-released.
	whWedged
)

// dataPlaneView is what the control plane publishes: the scheduler's
// forwarding snapshot plus the worker-health picture the shards route
// against. Immutable after publish.
type dataPlaneView struct {
	fwd    npsim.Forwarder
	gen    uint64
	health []workerHealth
	live   []int    // indices of whAlive workers
	pubAt  sim.Time // publish instant, the snapshot-staleness reference
}

// shard is one ingress partition: a goroutine draining its ingress
// ring, resolving targets against the current view, and producing into
// its private per-worker rings. All fields below the ring are touched
// only by the shard goroutine (counters that samplers read are
// atomics).
type shard struct {
	id int
	e  *Sharded
	in *Ring

	staged   [][]*packet.Packet
	enqSeq   []uint64 // per worker: packets handed over on this shard's rings
	flows    *flowtab.Table[flowState]
	flowCap  int
	sweepHld int
	// Hash-bucket fencing past the flow budget (nil = exact). One
	// bucket per hash value this shard serves (h/nshards is a bijection
	// within the shard), shard-goroutine-only like flows.
	coarse     *coarseFence
	budgetable bool
	lastView   *dataPlaneView
	reaped     []bool // workers whose ring this shard has already drained
	rec        *obs.Recorder
	burst      *burstScratch // flow-run grouping state for the batch resolve
	occ        []int         // per-worker occupancy cache, valid within one burst (-1 = stale)

	sampleEvery int
	obsSkip     int

	migrations      atomic.Uint64
	fenced          atomic.Uint64
	dropped         atomic.Uint64
	forced          atomic.Uint64
	reinjected      atomic.Uint64
	recovered       atomic.Uint64
	feedbackDropped atomic.Uint64
	budgetHits      atomic.Uint64
}

// NewSharded validates cfg and builds the sharded engine (nothing
// running yet). cfg.Sched must implement npsim.SnapshotProvider — the
// data plane routes against snapshots, so a scheduler that cannot
// publish one has no way onto this path.
func NewSharded(cfg Config) (*Sharded, error) {
	if cfg.Dispatchers < 1 {
		return nil, fmt.Errorf("runtime: sharded engine needs Dispatchers >= 1, got %d", cfg.Dispatchers)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("runtime: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("runtime: Config.Sched is required")
	}
	sp, ok := cfg.Sched.(npsim.SnapshotProvider)
	if !ok {
		return nil, fmt.Errorf("runtime: scheduler %q cannot publish forwarding snapshots (no npsim.SnapshotProvider); Dispatchers>0 requires one", cfg.Sched.Name())
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
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.FeedbackCap <= 0 {
		cfg.FeedbackCap = 4096
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
	n := cfg.Dispatchers
	budgetable := cfg.Memory == npsim.MemorySketch ||
		(cfg.FlowBudget > 0 && cfg.Memory == npsim.MemoryAuto)
	e := &Sharded{
		cfg:      cfg,
		sp:       sp,
		tracker:  newSharedTracker(trackerConfig(cfg)),
		rec:      cfg.Recorder,
		perWDrop: make([]atomic.Uint64, cfg.Workers),
		health:   make([]workerHealth, cfg.Workers),
		feedback: make([]*feedRing, n),
		start:    time.Now(),
	}
	if e.rec != nil {
		e.rec.SetClock(e.Now)
		e.ingRec = obs.NewRecorder(obs.DefaultRingCap / (n + 1))
		e.ingRec.SetClock(e.Now)
	}
	if cfg.Telemetry != nil {
		e.tel = newEngineTel(cfg.Telemetry, cfg.Workers, n)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:         i,
			rings:      make([]*Ring, n),
			retired:    make([]atomic.Uint64, n),
			tracker:    e.tracker,
			now:        e.Now,
			work:       cfg.Work,
			workFactor: cfg.WorkFactor,
			services:   cfg.Services,
			handler:    cfg.Handler,
			pool:       cfg.Pool,
			tel:        e.tel.forWorkers(),
		}
		for s := 0; s < n; s++ {
			w.rings[s] = NewRing(cfg.RingCap)
		}
		w.idleSince.Store(0)
		if cfg.Faults != nil {
			w.faults = cfg.Faults.forWorker(i)
		}
		if e.rec != nil {
			w.rec = obs.NewRecorder(obs.DefaultRingCap / cfg.Workers)
			w.rec.SetClock(e.Now)
		}
		e.workers = append(e.workers, w)
		e.liveIdx = append(e.liveIdx, i)
	}
	shardCap := cfg.FlowStateCap/n + 1
	if cfg.FlowBudget > 0 && cfg.FlowBudget/n+1 < shardCap {
		// The budget is the tighter bound, split across shards like the
		// flow-state cap.
		shardCap = cfg.FlowBudget/n + 1
	}
	shardHint := 1 << 12
	if shardCap < shardHint {
		shardHint = shardCap
	}
	for s := 0; s < n; s++ {
		sh := &shard{
			id:          s,
			e:           e,
			in:          NewRing(cfg.IngressCap),
			enqSeq:      make([]uint64, cfg.Workers),
			flows:       flowtab.New[flowState](shardHint),
			flowCap:     shardCap,
			budgetable:  budgetable,
			reaped:      make([]bool, cfg.Workers),
			sampleEvery: cfg.SampleEvery,
			burst:       newBurstScratch(),
			occ:         make([]int, cfg.Workers),
		}
		if cfg.Memory == npsim.MemorySketch {
			sh.coarse = newCoarseFence(n)
		}
		for w := 0; w < cfg.Workers; w++ {
			sh.staged = append(sh.staged, make([]*packet.Packet, 0, cfg.Batch))
		}
		if e.rec != nil {
			sh.rec = obs.NewRecorder(obs.DefaultRingCap / (n + 1))
			sh.rec.SetClock(e.Now)
		}
		e.shards = append(e.shards, sh)
		e.feedback[s] = newFeedRing(cfg.FeedbackCap)
	}
	if n > 1 {
		e.ingScratch = make([][]*packet.Packet, n)
		for s := 0; s < n; s++ {
			e.ingScratch[s] = make([]*packet.Packet, 0, burstChunk)
		}
	}
	if cfg.Telemetry != nil {
		// After the worker and shard loops: the per-worker and per-shard
		// gauge closures capture the constructed objects.
		registerShardedMetrics(cfg.Telemetry, e)
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

// Now is the runtime clock: nanoseconds since NewSharded.
func (e *Sharded) Now() sim.Time {
	return sim.Time(time.Since(e.start).Nanoseconds())
}

// --- npsim.View (consulted by the scheduler on the control plane) ---

// NumCores returns the worker count.
func (e *Sharded) NumCores() int { return len(e.workers) }

// QueueLen returns worker c's drainable backlog: ring occupancy across
// every shard's ring plus in-service packets. Shard-local stage buffers
// are invisible here (they are private to each shard goroutine), so the
// view can under-read by at most Dispatchers×Batch packets — the same
// order of error a hardware scheduler has against in-flight DMA.
// A quarantined worker reads as permanently full.
func (e *Sharded) QueueLen(c int) int {
	if e.health[c] != whAlive {
		return e.QueueCap()
	}
	return e.workers[c].queueLen()
}

// QueueCap returns a worker's total buffering: per-shard ring capacity
// times the shard count.
func (e *Sharded) QueueCap() int {
	return e.workers[0].rings[0].Cap() * len(e.shards)
}

// IdleFor returns how long worker c has been out of work; a quarantined
// worker is never idle (it must not attract work or donate itself).
func (e *Sharded) IdleFor(c int) sim.Time { return e.idleForAt(c, e.Now()) }

func (e *Sharded) idleForAt(c int, now sim.Time) sim.Time {
	if e.health[c] != whAlive {
		return 0
	}
	return e.workers[c].idleFor(now)
}

// Start publishes the initial forwarding view and launches the workers,
// the shards and the control plane (plus the metrics sampler when
// configured). ctx cancellation makes blocking enqueues give up; the
// run itself is ended by Stop.
func (e *Sharded) Start(ctx context.Context) {
	if e.started {
		panic("runtime: Sharded engine started twice")
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
	e.publish() // shards must never observe a nil view
	for _, w := range e.workers {
		w := w
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			w.run(e.cfg.Batch)
		}()
	}
	for _, sh := range e.shards {
		sh := sh
		e.swg.Add(1)
		go func() {
			defer e.swg.Done()
			sh.run()
		}()
	}
	e.cpStop = make(chan struct{})
	e.cpDone = make(chan struct{})
	go e.controlPlane()
	if e.cfg.MetricsInterval > 0 {
		e.startShardedSampler()
	}
}

// Ingest offers one packet to the data plane: the flow's CRC16 picks
// the shard, preserving per-flow arrival order, and the packet is
// enqueued on that shard's ingress ring. Reports whether the packet
// was accepted (false = dropped at ingress under DropWhenFull or after
// context cancellation). Must be called from a single goroutine.
func (e *Sharded) Ingest(p *packet.Packet) bool {
	e.dispatched.Add(1)
	if e.tel.on {
		// Reuse the sim-side Enqueued field as the ingest timestamp:
		// latency and ring-wait histograms measure from here, so the
		// ingress ring's queueing is part of what they see.
		p.Enqueued = e.Now()
	}
	sh := e.shards[int(crc.PacketHash(p))%len(e.shards)]
	for !sh.in.Push(p) {
		if e.cfg.Policy == DropWhenFull || e.ctx.Err() != nil {
			e.ingressDrops.Add(1)
			if e.ingRec != nil {
				e.ingRec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
					Core: -1, Core2: -1, Flow: p.Flow, Val: int64(sh.in.Len())})
			}
			e.cfg.Pool.Put(p)
			return false
		}
		time.Sleep(5 * time.Microsecond)
	}
	return true
}

// --- shard goroutine ---

// run drains the ingress ring until it is closed and empty, resolving
// every packet against the freshest published view.
func (s *shard) run() {
	batch := s.e.cfg.Batch
	buf := make([]*packet.Packet, batch)
	idleSpins := 0
	for {
		s.syncView()
		n := s.in.PopBatch(buf)
		if n == 0 {
			if s.in.Closed() && s.in.Len() == 0 {
				s.shutdown()
				return
			}
			// Publish partial batches before idling so low-rate workers
			// are not starved during arrival gaps.
			s.flushAll()
			idleSpins++
			switch {
			case idleSpins < 16:
				runtime.Gosched()
			default:
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idleSpins = 0
		if s.e.tel.on {
			// Snapshot staleness at resolve: how old the view this batch
			// is about to route against is. One clock read per batch.
			if age := int64(s.e.Now() - s.lastView.pubAt); age > 0 {
				s.e.tel.staleness.Record(s.id, age)
				noteMax(&s.e.maxStaleness, age)
			}
		}
		s.dispatchBurst(buf[:n])
		for i := 0; i < n; i++ {
			buf[i] = nil
		}
	}
}

// shutdown is the shard's exit protocol: deliver everything staged,
// then wait out two full control-plane health scans (so any worker
// that died before ingress closed is quarantined and drained while
// this shard can still re-inject), and flush whatever recovery staged.
func (s *shard) shutdown() {
	s.flushAll()
	target := s.e.scanEpoch.Load() + 2
	for s.e.scanEpoch.Load() < target {
		s.syncView()
		time.Sleep(5 * time.Microsecond)
	}
	s.syncView()
	s.flushAll()
}

// dispatchResolved resolves and enqueues one packet whose observation
// was already fed to the control plane (observeN). The resolution loop
// re-runs whenever the world shifts underneath it — a target died, a
// view change triggered recovery — so every decision lands on current
// state, exactly like the legacy engine's DispatchTo. This is the burst
// path's fallback for irregular flow runs.
func (s *shard) dispatchResolved(p *packet.Packet) {
	h := crc.PacketHash(p)
	for {
		v := s.syncView()
		t := v.fwd.Forward(p)
		if t < 0 || t >= len(s.e.workers) {
			panic(fmt.Sprintf("runtime: snapshot of %q forwarded to invalid worker %d", s.e.cfg.Sched.Name(), t))
		}
		if v.health[t] != whAlive {
			nt := s.reroute(h, 0)
			if nt < 0 {
				s.countDrop(p, t) // no live worker reachable
				return
			}
			t = nt
		} else if s.e.workers[t].state.Load() == wsDead {
			// Died since the last publish: the control plane scans for
			// this continuously, so wait for it to quarantine and
			// republish rather than routing into a dead ring.
			runtime.Gosched()
			continue
		}
		kind := routePlain
		st, seen, coarse := s.fenceLookup(p.Flow, h)
		fencedAt, fenceSeq := int64(0), uint64(0)
		old, want := -1, t
		if seen {
			fencedAt = st.fencedAt
			fenceSeq = st.seq
		}
		if seen && int(st.core) != t {
			old = int(st.core)
			switch {
			case s.e.cfg.DisableFencing || s.retiredOn(old) >= st.seq:
				// The old worker retired every packet this shard gave it
				// for this flow (or we were asked not to care): the
				// switch is ordering-safe.
				kind = routeMigrated
			case v.health[old] == whAlive && s.e.workers[old].state.Load() == wsDead:
				// Fenced to a worker that died undetected — wait for the
				// control plane, whose republish triggers our drain.
				runtime.Gosched()
				continue
			case v.health[old] != whAlive:
				// Quarantined but this shard could not recover the
				// flow's packets (wedged worker, undrainable ring).
				// Holding the fence would wedge the flow too; release
				// it, counted, accepting the bounded reordering risk.
				kind = routeForced
			default:
				kind = routeFenced
				t = old
			}
		}
		// Copy the key (and event fields) before push: once the packet
		// is published to the ring the worker may retire it and hand it
		// back to the pool, so p must not be read again.
		f := p.Flow
		svc := p.Service
		ok, retry := s.push(p, t)
		if retry {
			continue
		}
		if !ok {
			return
		}
		switch kind {
		case routeMigrated:
			s.migrations.Add(1)
			fencedAt = s.endFence(f, svc, t, old, fencedAt)
		case routeForced:
			s.forced.Add(1)
			s.migrations.Add(1)
			fencedAt = s.endFence(f, svc, t, old, fencedAt)
		case routeFenced:
			s.fenced.Add(1)
			if fencedAt == 0 {
				fencedAt = int64(s.e.Now())
				if s.rec != nil {
					s.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
						Core: int32(old), Core2: int32(want), Flow: f, Val: int64(fenceSeq)})
				}
			}
		}
		if coarse {
			s.coarse.put(h, int32(t), s.enqSeq[t], fencedAt)
		} else {
			s.rememberFlowSeen(f, h, t, fencedAt, seen)
		}
		return
	}
}

// fenceLookup resolves the fence state for a flow: the exact table is
// authoritative while an entry exists (flows fenced before the budget
// hit keep exact routing until they drain); otherwise the hash bucket
// answers once coarse fencing is active. The third result reports which
// regime the flow is in, so the caller writes back to the same place.
func (s *shard) fenceLookup(f packet.FlowKey, h uint16) (flowState, bool, bool) {
	st, seen := s.flows.Get(f, h)
	if seen || s.coarse == nil {
		return st, seen, false
	}
	if b := s.coarse.ref(h); b.core >= 0 {
		return *b, true, true
	}
	return flowState{}, false, true
}

// endFence closes a fence span opened at fencedAt (0 = nothing open),
// mirroring the legacy engine's endFence: record the hold, track the
// maximum, emit the closing span event. Shard goroutine only; the hist
// lane is the shard id.
func (s *shard) endFence(f packet.FlowKey, svc packet.ServiceID, target, old int, fencedAt int64) int64 {
	if fencedAt == 0 {
		return 0
	}
	hold := int64(s.e.Now()) - fencedAt
	if hold < 0 {
		hold = 0
	}
	s.e.tel.fenceHold.Record(s.id, hold)
	noteMax(&s.e.maxFenceHold, hold)
	if s.rec != nil {
		s.rec.Emit(obs.Event{Kind: obs.EvFenceEnd, Service: int16(svc),
			Core: int32(target), Core2: int32(old), Flow: f, Val: hold})
	}
	return 0
}

// observeN feeds a flow run of n packets to the control plane as one
// aggregated (and sampled) observation record, never blocking: a full
// ring costs observations, not latency. Records are staged locally and
// published once per burst (publishObs), so the cross-core tail store
// happens once per burst instead of once per sample. h is p's flow hash
// (the caller already holds it).
func (s *shard) observeN(p *packet.Packet, h uint16, n int) {
	k := n
	if s.sampleEvery > 1 {
		s.obsSkip += n
		k = s.obsSkip / s.sampleEvery
		s.obsSkip -= k * s.sampleEvery
		if k == 0 {
			return
		}
	}
	rec := obsRec{flow: p.Flow, hash: h, svc: p.Service, size: uint32(p.Size), n: uint32(k)}
	if !s.e.feedback[s.id].tryPush(rec) {
		s.feedbackDropped.Add(uint64(k))
	}
}

// publishObs makes the burst's staged observation records visible to
// the control plane.
func (s *shard) publishObs() {
	s.e.feedback[s.id].publish()
}

// retiredOn is the per-shard fence signal: how many packets this shard
// enqueued on worker w's ring have been fully retired.
func (s *shard) retiredOn(w int) uint64 {
	return s.e.workers[w].retired[s.id].Load()
}

// syncView loads the current view and, when it changed, runs the
// recovery reactions the new view demands before returning. lastView
// is advanced before reacting so re-entrant syncs (from push waits
// inside a drain) see the newest view and never regress it.
func (s *shard) syncView() *dataPlaneView {
	v := s.e.view.Load()
	if v != s.lastView {
		s.lastView = v
		s.onViewChange(v)
	}
	return s.lastView
}

// onViewChange reacts to newly-quarantined workers: for a seized one,
// drain this shard's ring into live workers (oldest first, fences
// re-pointed — see the ordering argument on Sharded); for a wedged
// one, just stop producing (its staged packets stay stranded, fences
// release lazily). reaped guards each worker against double drains
// across nested syncs.
func (s *shard) onViewChange(v *dataPlaneView) {
	for w, h := range v.health {
		if h == whAlive || s.reaped[w] {
			continue
		}
		s.reaped[w] = true
		if h != whSeized {
			continue
		}
		t0 := s.e.Now()
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvRecoveryStart, Service: -1, Core: int32(w),
				Core2: int32(s.id), Val: int64(s.e.workers[w].rings[s.id].Len() + len(s.staged[w]))})
		}
		var reinjected uint64
		touched := make(map[packet.FlowKey]struct{})
		buf := make([]*packet.Packet, s.e.cfg.Batch)
		r := s.e.workers[w].rings[s.id]
		for {
			n := r.PopBatch(buf)
			if n == 0 {
				break
			}
			for j := 0; j < n; j++ {
				if s.reinject(buf[j], touched) {
					reinjected++
				}
				buf[j] = nil
			}
		}
		for _, p := range s.staged[w] {
			if s.reinject(p, touched) {
				reinjected++
			}
		}
		s.staged[w] = s.staged[w][:0]
		// Entries still pointing at w were fully retired (everything
		// unretired was just re-pointed by reinject): forget them.
		retired := s.retiredOn(w)
		s.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
			return int(st.core) == w && retired >= st.seq
		})
		if s.coarse != nil {
			s.coarse.sweepDead(int32(w), retired)
		}
		s.reinjected.Add(reinjected)
		s.recovered.Add(uint64(len(touched)))
		dur := int64(s.e.Now() - t0)
		s.e.tel.recovery.Record(s.id, dur)
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvRecovery, Service: -1, Core: int32(w),
				Core2: -1, Val: int64(reinjected)})
			s.rec.Emit(obs.Event{Kind: obs.EvRecoveryEnd, Service: -1, Core: int32(w),
				Core2: int32(s.id), Val: dur})
		}
	}
}

// reinject pushes one stranded packet onto a live worker, bypassing
// the fence (ordering-safe: the drain delivers the flow's unretired
// packets in enqueue order), and re-points the flow's fence at the new
// home.
func (s *shard) reinject(p *packet.Packet, touched map[packet.FlowKey]struct{}) bool {
	h := crc.PacketHash(p)
	f := p.Flow // push publishes p; no reads after it
	for attempt := 0; ; attempt++ {
		t := s.reroute(h, attempt)
		if t < 0 {
			s.dropped.Add(1)
			s.e.cfg.Pool.Put(p)
			return false
		}
		ok, retry := s.push(p, t)
		if retry {
			runtime.Gosched()
			continue
		}
		if !ok {
			return false
		}
		if s.coarse != nil && !s.flows.Has(f, h) {
			// Coarse-fenced flow: re-point its bucket. Rerouting is by
			// hash and a bucket is one hash value within this shard, so
			// every member lands on the same worker and the bucket fence
			// stays sound.
			s.coarse.put(h, int32(t), s.enqSeq[t], 0)
		} else {
			s.flows.Put(f, h, flowState{core: int32(t), seq: s.enqSeq[t]})
		}
		touched[f] = struct{}{}
		return true
	}
}

// reroute deterministically picks a live worker for a flow by its
// cached hash, skipping workers whose goroutines died but are not yet
// quarantined. Returns -1 when none is reachable.
func (s *shard) reroute(h uint16, attempt int) int {
	v := s.lastView
	n := len(v.live)
	if n == 0 {
		return -1
	}
	hi := int(h) + attempt
	for i := 0; i < n; i++ {
		c := v.live[(hi+i)%n]
		if s.e.workers[c].state.Load() != wsDead {
			return c
		}
	}
	return -1
}

// push stages p for worker w on this shard's ring, flushing when the
// stage buffer fills. Same contract as the legacy engine's push:
// (accepted, retry), where retry means the target died and the route
// must be re-resolved.
func (s *shard) push(p *packet.Packet, w int) (bool, bool) {
	wk := s.e.workers[w]
	if s.lastView.health[w] != whAlive || wk.state.Load() == wsDead {
		return false, true
	}
	r := wk.rings[s.id]
	for r.Len()+len(s.staged[w]) >= r.Cap() {
		if s.e.cfg.Policy == DropWhenFull || s.e.ctx.Err() != nil {
			s.countDrop(p, w)
			return false, false
		}
		s.flushWorker(w)
		s.syncView()
		if s.lastView.health[w] != whAlive || wk.state.Load() == wsDead {
			return false, true
		}
		time.Sleep(5 * time.Microsecond)
	}
	s.staged[w] = append(s.staged[w], p)
	s.enqSeq[w]++
	if len(s.staged[w]) >= s.e.cfg.Batch {
		s.flushWorker(w)
	}
	return true, false
}

// flushWorker publishes worker w's staged packets into this shard's
// ring. By construction (see push) the ring always has room.
func (s *shard) flushWorker(w int) {
	st := s.staged[w]
	if len(st) == 0 {
		return
	}
	n := s.e.workers[w].rings[s.id].PushBatch(st)
	if n != len(st) {
		panic(fmt.Sprintf("runtime: shard %d ring to worker %d rejected %d staged packets", s.id, w, len(st)-n))
	}
	s.staged[w] = st[:0]
}

// flushAll publishes every staged packet for live workers.
func (s *shard) flushAll() {
	for w := range s.staged {
		if s.lastView.health[w] != whAlive {
			continue
		}
		s.flushWorker(w)
	}
}

// rememberFlow updates the flow's fence record, sweeping drained
// entries when the table outgrows its per-shard cap (same amortisation
// as the legacy engine's rememberFlow).
func (s *shard) rememberFlow(f packet.FlowKey, h uint16, target int, fencedAt int64) {
	s.rememberFlowSeen(f, h, target, fencedAt, s.flows.Has(f, h))
}

// rememberFlowSeen is rememberFlow for callers that already probed the
// table (the burst path's single per-run Get).
func (s *shard) rememberFlowSeen(f packet.FlowKey, h uint16, target int, fencedAt int64, seen bool) {
	if !seen && s.flows.Len() >= s.flowCap {
		if s.sweepHld > 0 {
			s.sweepHld--
		} else {
			swept := s.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
				return s.retiredOn(int(st.core)) >= st.seq
			})
			if swept < s.flowCap/64+1 {
				s.sweepHld = s.flowCap / 16
			}
		}
		if s.budgetable && s.coarse == nil && s.flows.Len() >= s.flowCap {
			// Sweeping cannot hold the live-flow count under the budget:
			// degrade. New flows fence at hash-bucket granularity from
			// here on; existing exact entries stay authoritative until
			// they drain (rememberFlowSeen is never called for a flow
			// without one again — fenceLookup routes those to buckets).
			s.coarse = newCoarseFence(len(s.e.shards))
			s.budgetHits.Add(1)
			s.coarse.put(h, int32(target), s.enqSeq[target], fencedAt)
			return
		}
	}
	s.flows.Put(f, h, flowState{core: int32(target), seq: s.enqSeq[target], fencedAt: fencedAt})
}

// countDrop records one dropped packet bound for worker w.
func (s *shard) countDrop(p *packet.Packet, w int) {
	s.dropped.Add(1)
	if w >= 0 && w < len(s.e.perWDrop) {
		s.e.perWDrop[w].Add(1)
	}
	if s.rec != nil {
		s.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
			Core: int32(w), Core2: -1, Flow: p.Flow})
	}
	s.e.cfg.Pool.Put(p)
}

// --- control plane goroutine ---

// controlPlane owns the scheduler: it drains the shards' observation
// rings through the real scheduler (for its control side effects),
// scans worker health, and republishes the forwarding view whenever
// the scheduler's generation moves.
func (e *Sharded) controlPlane() {
	defer close(e.cpDone)
	// One reusable record buffer for the whole loop; a flow run arrives
	// as one record and burst-capable schedulers consume it in one call.
	// The scheduler is shown one scratch descriptor, refilled per record
	// with the fields a record carries, through a view whose clock is
	// read once per drained batch.
	obsBuf := make([]obsRec, e.cfg.Batch)
	var pkt packet.Packet
	v := &chunkView{liveQueues: e}
	bs, burstSched := npsim.Scheduler(e.sp).(npsim.BurstScheduler)
	for {
		select {
		case <-e.cpStop:
			return
		default:
		}
		progress := false
		for i := range e.feedback {
			n := e.feedback[i].popBatch(obsBuf)
			if n == 0 {
				continue
			}
			progress = true
			v.now = e.Now()
			for k := 0; k < n; k++ {
				// The returned target is deliberately discarded: the
				// data plane routes only against published snapshots,
				// so decisions take effect atomically and in bulk.
				rec := &obsBuf[k]
				rec.fill(&pkt)
				if burstSched {
					bs.TargetN(&pkt, int(rec.n), v)
				} else {
					for j := uint32(0); j < rec.n; j++ {
						e.sp.Target(&pkt, v)
					}
				}
			}
		}
		e.scanHealth()
		if g := e.sp.Generation(); g != e.pubGen {
			e.publish()
			progress = true
		}
		if !progress {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// publish snapshots the scheduler and swaps in a fresh view.
func (e *Sharded) publish() {
	fw := e.sp.Snapshot(e.Now())
	e.pubGen = e.sp.Generation()
	v := &dataPlaneView{
		fwd:    fw,
		gen:    e.pubGen,
		health: append([]workerHealth(nil), e.health...),
		live:   append([]int(nil), e.liveIdx...),
		pubAt:  e.Now(),
	}
	e.view.Store(v)
	e.snapshots.Add(1)
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvSnapshotPublish, Service: -1, Core: -1,
			Core2: -1, Val: int64(e.pubGen)})
	}
}

// scanHealth runs the dead-worker scan on every control-plane loop and
// the stall heuristic (when DetectWindow is set) at the legacy cadence
// of at most ~8 checks per window. The last live worker is never
// quarantined on the stall heuristic.
func (e *Sharded) scanHealth() {
	now := time.Now()
	stallScan := e.mon != nil && now.Sub(e.mon.lastCheck) >= e.mon.window/8
	if stallScan {
		e.mon.lastCheck = now
	}
	for i, w := range e.workers {
		if e.health[i] != whAlive {
			continue
		}
		if w.state.Load() == wsDead {
			e.quarantine(i)
			continue
		}
		if !stallScan || len(e.liveIdx) <= 1 {
			continue
		}
		p := w.processed.Load()
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
	e.scanEpoch.Add(1)
}

// quarantine removes worker i from the live set, seizes its rings when
// possible, and publishes the verdict — the shards do the actual
// draining, each for its own ring, when they observe the new view.
func (e *Sharded) quarantine(i int) {
	w := e.workers[i]
	if w.seize() {
		e.health[i] = whSeized
	} else {
		e.health[i] = whWedged
	}
	e.deaths.Add(1)
	if fa := w.faultAt.Swap(0); fa > 0 {
		if d := int64(e.Now()) - fa; d > e.maxDetect.Load() {
			e.maxDetect.Store(d)
		}
	}
	live := e.liveIdx[:0]
	for j := range e.workers {
		if e.health[j] == whAlive {
			live = append(live, j)
		}
	}
	e.liveIdx = live
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvWorkerDead, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(w.queueLen())})
	}
	e.publish()
}

// Stop closes ingress, waits for the shards to drain and exit, stops
// the control plane, closes the worker rings, and collects the Result.
// The engine cannot be restarted. The caller must have stopped calling
// Ingest.
func (e *Sharded) Stop() *Result {
	if !e.started || e.stopped {
		panic("runtime: Stop on a non-running sharded engine")
	}
	e.stopped = true
	for _, sh := range e.shards {
		sh.in.Close()
	}
	e.swg.Wait()
	close(e.cpStop)
	<-e.cpDone
	for _, w := range e.workers {
		for _, r := range w.rings {
			r.Close()
		}
	}
	e.wg.Wait()
	elapsed := time.Since(e.runStart)

	var stranded uint64
	for i, w := range e.workers {
		var s uint64
		for _, r := range w.rings {
			s += uint64(r.Len())
		}
		for _, sh := range e.shards {
			s += uint64(len(sh.staged[i]))
		}
		if s > 0 {
			stranded += s
			e.perWDrop[i].Add(s)
		}
	}
	if e.samplerStop != nil {
		close(e.samplerStop)
		<-e.samplerDone
	}
	e.mergeShardedEvents()

	res := &Result{
		Dispatched:           e.dispatched.Load(),
		Dropped:              e.ingressDrops.Load() + stranded,
		OutOfOrder:           e.tracker.outOfOrder(),
		EstimatedOOO:         e.tracker.estimatedOOO(),
		FlowBudgetHits:       e.tracker.budgetHits(),
		TrackedFlows:         e.tracker.flows(),
		EvictedFlows:         e.tracker.evicted(),
		Elapsed:              elapsed,
		WorkerStalls:         e.stalls.Load(),
		WorkerDeaths:         e.deaths.Load(),
		Stranded:             stranded,
		MaxDetect:            time.Duration(e.maxDetect.Load()),
		MaxFenceHold:         time.Duration(e.maxFenceHold.Load()),
		MaxSnapshotStaleness: time.Duration(e.maxStaleness.Load()),
		Snapshots:            e.snapshots.Load(),
		Dispatchers:          len(e.shards),
	}
	for _, sh := range e.shards {
		res.Dropped += sh.dropped.Load()
		res.Migrations += sh.migrations.Load()
		res.Fenced += sh.fenced.Load()
		res.Forced += sh.forced.Load()
		res.Reinjected += sh.reinjected.Load()
		res.FlowBudgetHits += sh.budgetHits.Load()
		res.Recovered += sh.recovered.Load()
		res.FeedbackDropped += sh.feedbackDropped.Load()
	}
	for i, w := range e.workers {
		res.Processed += w.processed.Load()
		res.Workers = append(res.Workers, WorkerReport{
			ID:         i,
			Processed:  w.processed.Load(),
			Dropped:    e.perWDrop[i].Load(),
			OutOfOrder: w.ooo.Load(),
			Batches:    w.batches.Load(),
			Dead:       e.health[i] != whAlive,
		})
	}
	if e.sampler != nil {
		res.Series = e.sampler.Series()
	}
	return res
}

// mergeShardedEvents folds the worker, shard and ingress recorders'
// events into the main recorder, re-sorting the combined stream by
// timestamp (same contract as the legacy engine's mergeWorkerEvents).
func (e *Sharded) mergeShardedEvents() {
	if e.rec == nil {
		return
	}
	var all []obs.Event
	for _, w := range e.workers {
		all = append(all, w.rec.Events()...)
	}
	for _, sh := range e.shards {
		all = append(all, sh.rec.Events()...)
	}
	all = append(all, e.ingRec.Events()...)
	e.rec.Merge(all)
}

// startShardedSampler launches the wall-clock metrics goroutine.
// Probes read only atomics.
func (e *Sharded) startShardedSampler() {
	probes := make([]obs.Probe, 0, 2*len(e.workers)+len(e.shards)+4)
	for _, w := range e.workers {
		w := w
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("worker%d.q", w.id), Fn: func() float64 {
				return float64(w.queueLen())
			}},
			obs.RateProbe(fmt.Sprintf("worker%d.pps", w.id), w.processed.Load, nil),
		)
	}
	for _, sh := range e.shards {
		sh := sh
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("shard%d.in", sh.id), Fn: func() float64 {
				return float64(sh.in.Len())
			}})
	}
	probes = append(probes,
		obs.RateProbe("dispatched", e.dispatched.Load, nil),
		obs.RateProbe("drops", func() uint64 {
			n := e.ingressDrops.Load()
			for _, sh := range e.shards {
				n += sh.dropped.Load()
			}
			return n
		}, nil),
		obs.RateProbe("ooo", func() uint64 {
			var n uint64
			for _, w := range e.workers {
				n += w.ooo.Load()
			}
			return n
		}, nil),
		obs.RateProbe("fenced", func() uint64 {
			var n uint64
			for _, sh := range e.shards {
				n += sh.fenced.Load()
			}
			return n
		}, nil),
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
