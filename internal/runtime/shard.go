package runtime

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"laps/internal/crc"
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
// consumes a weighted 1-in-feedbackStride sample of each shard's packet
// stream from bounded per-shard feedback rings (never blocking the
// shards; the lane's feedSampler, feedring.go), runs the scheduler's
// full logic — AFD updates, imbalance checks, steals, splits/merges —
// for its side effects, and republishes a fresh snapshot whenever the scheduler's
// generation counter moves. Staleness is therefore bounded by one
// control-plane loop iteration plus however long the feedback sample
// that triggers a mutation sits in its ring.
//
// Ordering: a flow maps to exactly one shard (flow-affine ingress) and
// each shard is a lane, so the lane's fence rule covers it (lane.go).
// Snapshot staleness can delay a migration by one publish; it can never
// reorder a flow.
type Sharded struct {
	*plane
	shards []*shard
	ingRec *obs.Recorder // ingress-goroutine drop events
	sp     npsim.SnapshotProvider

	view atomic.Pointer[dataPlaneView]

	// ingScratch stages an IngestBurst's packets per shard (ingress
	// goroutine only), so a multi-shard burst costs one ring reservation
	// per (shard, burst).
	ingScratch [][]*packet.Packet

	swg    sync.WaitGroup // shards
	cpStop chan struct{}
	cpDone chan struct{}

	// Control-plane-goroutine-only writers; the counters are atomics so
	// the admin /metrics scraper can read them mid-run.
	pubGen    uint64
	snapshots atomic.Uint64

	maxStaleness atomic.Int64 // ns; shards race through noteMax
	// scanEpoch counts completed health scans; shards wait on it at
	// shutdown so a death that precedes ingress close is always
	// quarantined (and drained) before the shards exit.
	scanEpoch atomic.Uint64
}

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

// shard is one ingress partition: a lane plus the goroutine that feeds
// it — draining an ingress ring, resolving targets against the current
// view, and reporting what it saw to the control plane. Everything but
// the rings' far ends is touched only by the shard goroutine.
type shard struct {
	*lane
	e        *Sharded
	in       *Ring
	feed     *feedRing // sampled observations to the control plane
	lastView *dataPlaneView
	reaped   []bool // workers whose ring this shard has already drained
}

// NewSharded validates cfg and builds the sharded engine (nothing
// running yet). cfg.Sched must implement npsim.SnapshotProvider — the
// data plane routes against snapshots, so a scheduler that cannot
// publish one has no way onto this path.
func NewSharded(cfg Config) (*Sharded, error) {
	n := cfg.Dispatchers
	if n < 1 {
		return nil, fmt.Errorf("runtime: sharded engine needs Dispatchers >= 1, got %d", n)
	}
	sp, ok := cfg.Sched.(npsim.SnapshotProvider)
	if cfg.Sched != nil && !ok {
		return nil, fmt.Errorf("runtime: scheduler %q cannot publish forwarding snapshots (no npsim.SnapshotProvider); Dispatchers>0 requires one", cfg.Sched.Name())
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	if cfg.FeedbackCap <= 0 {
		cfg.FeedbackCap = 4096
	}
	p, err := newPlane(cfg, n)
	if err != nil {
		return nil, err
	}
	e := &Sharded{plane: p, sp: sp}
	if e.rec != nil {
		e.ingRec = p.newRecorder(n + 1)
	}
	for s := 0; s < n; s++ {
		sh := &shard{
			e:      e,
			in:     NewRing(cfg.IngressCap),
			reaped: make([]bool, cfg.Workers),
		}
		sh.feed = newFeedRing(cfg.FeedbackCap)
		var rec *obs.Recorder
		if e.rec != nil {
			rec = p.newRecorder(n + 1)
		}
		sh.lane = newLane(p, s, sh, rec)
		e.shards = append(e.shards, sh)
		if cfg.Telemetry != nil {
			cfg.Telemetry.GaugeL("laps_shard_ingress_depth", `shard="`+strconv.Itoa(s)+`"`,
				"Ingress ring backlog, per shard.", func() float64 {
					return float64(sh.in.Len())
				})
		}
	}
	if n > 1 {
		e.ingScratch = make([][]*packet.Packet, n)
		for s := range e.ingScratch {
			e.ingScratch[s] = make([]*packet.Packet, 0, burstChunk)
		}
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.Counter("laps_snapshots_total", "Forwarding views published by the control plane.", e.snapshots.Load)
		reg.Counter("laps_feedback_dropped_total", "Observed packets (sample weight) lost to full feedback rings.", func() uint64 {
			return e.total(cFeedbackDropped)
		})
		reg.Gauge("laps_max_snapshot_staleness_seconds", "Oldest view any shard resolved against so far.", func() float64 {
			return float64(e.maxStaleness.Load()) * 1e-9
		})
	}
	return e, nil
}

// Start publishes the initial forwarding view and launches the workers,
// the shards and the control plane (plus the metrics sampler when
// configured). ctx cancellation makes blocking enqueues give up; the
// run itself is ended by Stop.
func (e *Sharded) Start(ctx context.Context) {
	e.begin(ctx)
	e.publish() // shards must never observe a nil view
	probes := make([]obs.Probe, len(e.shards))
	for i, sh := range e.shards {
		probes[i] = obs.Probe{Name: fmt.Sprintf("shard%d.in", i), Fn: func() float64 {
			return float64(sh.in.Len())
		}}
		e.swg.Add(1)
		go func() {
			defer e.swg.Done()
			sh.run()
		}()
	}
	e.cpStop = make(chan struct{})
	e.cpDone = make(chan struct{})
	go e.controlPlane()
	e.startSampler(probes...)
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
	buf := make([]*packet.Packet, s.cfg.Batch)
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
		if s.tel.on {
			// Snapshot staleness at resolve: how old the view this batch
			// is about to route against is. One clock read per batch.
			if age := int64(s.Now() - s.lastView.pubAt); age > 0 {
				s.tel.staleness.Record(s.id, age)
				noteMax(&s.e.maxStaleness, age)
			}
		}
		s.dispatchBurst(buf[:n])
		clear(buf[:n])
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

// dispatchBurst resolves one popped ingress batch as flow runs: one
// view for the whole chunk, one Forward/fence update per run, and each
// run offered to the lane's sampler as a unit. Irregular runs fall
// back to the per-packet loop, which may adopt a new view and trigger
// recovery mid-burst — later runs then resolve against the fresher
// world, exactly as consecutive per-packet dispatches would.
func (s *shard) dispatchBurst(ps []*packet.Packet) {
	for len(ps) > 0 {
		chunk := ps[:min(len(ps), burstChunk)]
		ps = ps[len(chunk):]
		s.resetOcc()
		groups := s.burst.group(chunk)
		for gi := range groups {
			g := &groups[gi]
			first := chunk[g.head]
			s.observeN(first, g.hash, int(g.n))
			s.dispatchGroup(chunk, g, s.checkTarget(s.lastView.fwd.Forward(first)))
		}
		s.burst.reset()
		// One cross-core tail store per chunk instead of one per record.
		s.feed.publish()
	}
}

// reresolve (laneOwner): health is the control plane's call, and it
// scans for deaths continuously — yield to it rather than routing into
// a dead ring, then resolve against whatever view it has published.
func (s *shard) reresolve(p *packet.Packet, _, dead int) int {
	if dead >= 0 {
		runtime.Gosched()
	}
	s.syncView()
	return s.checkTarget(s.lastView.fwd.Forward(p))
}

// ringFull (laneOwner): a blocked shard keeps adopting views, so a
// quarantine of the very worker it waits on gets through.
func (s *shard) ringFull() { s.syncView() }

// observeN shows a flow run of n packets to the lane's sampler and,
// when the sample takes it, stages one observation record carrying the
// sampler's weight for the control plane. It never blocks: a full ring
// costs observations, not latency, and the weight lost is counted.
// Records are published once per chunk. h is p's flow hash (the caller
// already holds it).
func (s *shard) observeN(p *packet.Packet, h uint16, n int) {
	w := s.sample.weigh(uint32(n))
	if w == 0 {
		return
	}
	rec := obsRec{flow: p.Flow, hash: h, svc: p.Service, size: uint32(p.Size), n: w}
	if !s.feed.tryPush(rec) {
		s.n[cFeedbackDropped].Add(uint64(w))
	}
}

// syncView adopts the current view and, when it changed, reacts to
// newly-quarantined workers before returning: a seized one's ring is
// drained into live workers (lane.drain); a wedged one is just no
// longer produced to (its staged packets stay stranded, fences release
// lazily). lastView is advanced before reacting so re-entrant syncs
// (from push waits inside a drain) see the newest view and never
// regress it; reaped guards each worker against double drains across
// them.
func (s *shard) syncView() {
	v := s.e.view.Load()
	if v == s.lastView {
		return
	}
	s.lastView, s.health, s.live = v, v.health, v.live
	for w, h := range v.health {
		if h == whAlive || s.reaped[w] {
			continue
		}
		s.reaped[w] = true
		if h == whSeized {
			s.drain(w)
		}
	}
}

// --- control plane goroutine ---

// controlPlane owns the scheduler: it drains the shards' observation
// rings through the real scheduler (for its control side effects),
// scans worker health, and republishes the forwarding view whenever
// the scheduler's generation moves.
func (e *Sharded) controlPlane() {
	defer close(e.cpDone)
	// One reusable record buffer for the whole loop; burst-capable
	// schedulers consume a record's whole weight in one call.
	// The scheduler is shown one scratch descriptor, refilled per record
	// with the fields a record carries, through a view whose clock is
	// read once per drained batch.
	obsBuf := make([]obsRec, e.cfg.Batch)
	var pkt packet.Packet
	v := &chunkView{liveQueues: e}
	for {
		select {
		case <-e.cpStop:
			return
		default:
		}
		progress := false
		for _, sh := range e.shards {
			n := sh.feed.popBatch(obsBuf)
			if n == 0 {
				continue
			}
			progress = true
			v.now = e.Now()
			for _, rec := range obsBuf[:n] {
				// The returned target is deliberately discarded: the
				// data plane routes only against published snapshots,
				// so decisions take effect atomically and in bulk.
				rec.fill(&pkt)
				if e.bs != nil {
					e.bs.TargetN(&pkt, int(rec.n), v)
				} else {
					for j := uint32(0); j < rec.n; j++ {
						e.sp.Target(&pkt, v)
					}
				}
			}
		}
		// Exited workers are looked for on every loop, stalls at the
		// monitor's cadence.
		e.scanHealth(time.Now(), e.quarantine)
		e.scanEpoch.Add(1)
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
		health: append([]workerHealth(nil), e.verdicts...),
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

// quarantine takes worker i out of service and publishes the verdict —
// the shards do the actual draining, each for its own ring, when they
// adopt the new view.
func (e *Sharded) quarantine(i int) {
	e.markDead(i)
	e.publish()
}

// Stop closes ingress, waits for the shards to drain and exit, stops
// the control plane, closes the worker rings, and collects the Result.
// The engine cannot be restarted. The caller must have stopped calling
// Ingest.
func (e *Sharded) Stop() *Result {
	e.end()
	for _, sh := range e.shards {
		sh.in.Close()
	}
	e.swg.Wait()
	close(e.cpStop)
	<-e.cpDone
	res := e.finish(e.ingRec)
	res.MaxSnapshotStaleness = time.Duration(e.maxStaleness.Load())
	res.Snapshots = e.snapshots.Load()
	res.FeedbackDropped = e.total(cFeedbackDropped)
	res.Dispatchers = len(e.shards)
	return res
}
