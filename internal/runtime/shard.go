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
// The control plane is whichever shard holds Sharded.mu. A shard keeps
// the runs its lane's sampler takes (feedSampler, feedring.go) as
// records and trains them in a pass off the per-packet path: when
// trainBatch have piled up, when its ingress ring runs dry, and before
// it exits. The pass runs the scheduler's full logic — AFD updates,
// imbalance checks, steals, splits/merges — for its side effects, scans
// worker health, and republishes the view if the scheduler's generation
// moved; the shard then adopts that view. The scheduler therefore sees
// every shard's sample, in an order set by the input and the lock.
//
// Ordering: a flow maps to exactly one shard (flow-affine ingress) and
// each shard is a lane, so the lane's fence rule covers it (lane.go).
// A view that lags the scheduler can delay a migration; it can never
// reorder a flow.
type Sharded struct {
	*plane
	shards []*shard
	ingRec *obs.Recorder // ingress-goroutine drop events

	view atomic.Pointer[dataPlaneView]

	// ingScratch stages an IngestBurst's packets per shard (ingress
	// goroutine only), so a multi-shard burst costs one ring reservation
	// per (shard, burst).
	ingScratch [][]*packet.Packet
	one        [1]*packet.Packet // Ingest's burst of one

	swg sync.WaitGroup // shards

	// mu makes its holder the control plane: the scheduler, the health
	// verdicts and the monitor, and the fields below, are touched only
	// under it (or once no shard runs).
	mu    sync.Mutex
	gen   uint64        // the published view's scheduler generation
	chunk chunkView     // the View a training pass shows the scheduler
	pkt   packet.Packet // scratch descriptor each record is refilled into
}

// dataPlaneView is what the control plane publishes: the scheduler's
// forwarding snapshot plus the worker-health picture the shards route
// against. Immutable after publish.
type dataPlaneView struct {
	fwd    npsim.Forwarder
	health []workerHealth
	live   []int // indices of whAlive workers
}

// trainBatch is how many sampled runs a shard holds before it trains
// them. Training interleaves AFD and scheduler work with forwarding on
// the shard's core: on every chunk it cost sharded_churn 9 % of its
// throughput, at 128 records about 2.5 %; larger batches cost less but
// show the scheduler fewer queue pictures, and so teach LAPS too few
// migrations (docs/PERFORMANCE.md, "Training on the shards").
const trainBatch = 128

// shard is one ingress partition: a lane plus the goroutine that feeds
// it — draining an ingress ring, resolving targets against the current
// view, and training the scheduler on its sample. Everything but the
// rings' far ends is touched only by the shard goroutine.
type shard struct {
	*lane
	e        *Sharded
	in       *Ring
	sampled  []obsRec // sampled runs not yet trained; never grows past its capacity
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
	if _, ok := cfg.Sched.(npsim.SnapshotProvider); cfg.Sched != nil && !ok {
		return nil, fmt.Errorf("runtime: scheduler %q cannot publish forwarding snapshots (no npsim.SnapshotProvider); Dispatchers>0 requires one", cfg.Sched.Name())
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	p, err := newPlane(cfg, n)
	if err != nil {
		return nil, err
	}
	e := &Sharded{plane: p}
	e.chunk.liveQueues = e
	if e.rec != nil {
		e.ingRec = p.newRecorder(n + 1)
	}
	for s := 0; s < n; s++ {
		sh := &shard{
			e:  e,
			in: NewRing(cfg.IngressCap),
			// A chunk adds at most one record per run before the check.
			sampled: make([]obsRec, 0, trainBatch+burstChunk),
			reaped:  make([]bool, cfg.Workers),
		}
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
	return e, nil
}

// Start publishes the initial forwarding view and launches the workers
// and the shards (plus the metrics sampler when configured). ctx
// cancellation makes blocking enqueues give up; the run itself is ended
// by Stop.
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
	e.one[0] = p
	ok := e.ingestShard(e.shards[int(crc.PacketHash(p))%len(e.shards)], e.one[:]) == 1
	e.one[0] = nil
	return ok
}

// --- shard goroutine ---

// run drains the ingress ring until it is closed and empty, resolving
// every packet against the freshest published view. Its last training
// pass comes after the ring is closed and empty, so every sampled run
// reaches the scheduler, and any worker found dead by then is drained
// from this lane's ring while the shard can still re-inject.
func (s *shard) run() {
	buf := make([]*packet.Packet, s.cfg.Batch)
	idleSpins := 0
	for {
		s.syncView()
		n := s.in.PopBatch(buf)
		if n == 0 {
			if s.in.Closed() && s.in.Len() == 0 {
				s.train()
				s.flushAll()
				return
			}
			// Publish partial batches before idling so low-rate workers
			// are not starved during arrival gaps — and before training,
			// so the workers are not kept waiting for it.
			s.flushAll()
			if idleSpins == 0 {
				s.train() // the ring just ran dry
			}
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
		s.dispatchBurst(buf[:n])
		clear(buf[:n])
	}
}

// dispatchBurst resolves one popped ingress batch as flow runs: one
// view for the whole chunk, one Forward/fence update per run, and each
// run offered to the lane's sampler as a unit. Irregular runs fall
// back to the per-packet loop, which may adopt a new view and trigger
// recovery mid-burst — later runs then resolve against the fresher
// world, exactly as consecutive per-packet dispatches would. Training
// waits for a chunk boundary, so it never changes the view under one.
func (s *shard) dispatchBurst(ps []*packet.Packet) {
	for len(ps) > 0 {
		chunk := ps[:min(len(ps), burstChunk)]
		ps = ps[len(chunk):]
		s.resetOcc()
		groups := s.burst.group(chunk)
		for gi := range groups {
			g := &groups[gi]
			first := chunk[g.head]
			if w := s.sample.weigh(uint32(g.n)); w != 0 {
				s.sampled = append(s.sampled, obsRec{flow: first.Flow, hash: g.hash,
					svc: first.Service, size: uint32(first.Size), n: w})
			}
			s.dispatchGroup(chunk, g, s.checkTarget(s.lastView.fwd.Forward(first)))
		}
		s.burst.reset()
		if len(s.sampled) >= trainBatch {
			s.train()
		}
	}
}

// train is a control-plane pass: under mu, show the scheduler every
// sampled run at its weight, with the clock read once for the whole
// pass, scan worker health, and republish the view if the scheduler's
// generation moved; then adopt the view, draining this lane's ring of
// any newly quarantined worker.
func (s *shard) train() {
	e := s.e
	e.mu.Lock()
	now := time.Now()
	e.chunk.now = sim.Time(now.Sub(e.start))
	for i := range s.sampled {
		// The answer is discarded: shards route only against published
		// views, so decisions take effect atomically and in bulk.
		s.sampled[i].fill(&e.pkt)
		e.targetN(&e.pkt, int(s.sampled[i].n), &e.chunk)
	}
	s.sampled = s.sampled[:0]
	e.scanHealth(now, e.quarantine)
	if e.sp.Generation() != e.gen {
		e.publish()
	}
	e.mu.Unlock()
	s.syncView()
}

// reresolve (laneOwner): a worker found dead is quarantined on the spot
// — the shard takes mu and is the control plane for that long — and the
// packet is resolved again against the view that says so, after this
// lane's ring of the dead worker is drained.
func (s *shard) reresolve(p *packet.Packet, _, dead int) int {
	if dead >= 0 {
		s.e.mu.Lock()
		if s.e.verdicts[dead] == whAlive {
			s.e.quarantine(dead)
		}
		s.e.mu.Unlock()
	}
	s.syncView()
	return s.checkTarget(s.lastView.fwd.Forward(p))
}

// ringFull (laneOwner): a blocked shard scans worker health when no one
// else holds the control plane, and keeps adopting views, so a
// quarantine of the very worker it waits on gets through.
func (s *shard) ringFull() {
	if s.e.mu.TryLock() {
		s.e.scanHealth(time.Now(), s.e.quarantine)
		s.e.mu.Unlock()
	}
	s.syncView()
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

// --- control plane (under mu) ---

// publish snapshots the scheduler and swaps in a fresh view.
func (e *Sharded) publish() {
	var fw npsim.Forwarder
	fw, e.gen = e.takeView(e.Now())
	e.view.Store(&dataPlaneView{
		fwd:    fw,
		health: append([]workerHealth(nil), e.verdicts...),
		live:   append([]int(nil), e.liveIdx...),
	})
}

// quarantine takes worker i out of service and publishes the verdict —
// the shards do the actual draining, each for its own ring, when they
// adopt the new view.
func (e *Sharded) quarantine(i int) {
	e.markDead(i)
	e.publish()
}

// Stop closes ingress, waits for the shards to drain and exit, closes
// the worker rings, and collects the Result. The engine cannot be
// restarted. The caller must have stopped calling Ingest.
func (e *Sharded) Stop() *Result {
	e.end()
	for _, sh := range e.shards {
		sh.in.Close()
	}
	e.swg.Wait()
	// With the shards gone this goroutine is the control plane and every
	// lane's owner. Each lane adopts the final view, so a worker
	// quarantined after some shard exited is drained too.
	e.reapLate(e.quarantine)
	for i := range e.shards {
		e.shards[i].syncView()
	}
	res := e.finish(e.ingRec)
	res.Dispatchers = len(e.shards)
	return res
}
