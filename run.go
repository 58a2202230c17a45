package laps

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"laps/internal/ingress"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	rt "laps/internal/runtime"
	"laps/internal/sim"
	"laps/internal/traffic"
)

// Live-runtime re-exports. The internal/runtime package executes a
// scheduler on real goroutine "cores"; these aliases give users the
// same single import path the simulator types have.
type (
	// WorkKind selects how live workers emulate per-packet processing
	// cost: WorkNone retires packets immediately, WorkSpin busy-loops
	// for the modeled service time (CPU-bound, scales with physical
	// cores), WorkSleep sleeps for it (latency-bound, scales with
	// worker count).
	WorkKind = rt.WorkKind
	// EngineStats are the live engine's end-of-run counters (both the
	// single-dispatcher engine and the sharded data plane produce them).
	EngineStats = rt.Result
	// WorkerReport is one live worker's accounting.
	WorkerReport = rt.WorkerReport
	// FaultPlan schedules deterministic worker faults (stall / slow /
	// kill) for a live run. Build one by hand or with RandomFaultPlan.
	FaultPlan = rt.FaultPlan
	// Fault is one scheduled worker fault in a FaultPlan.
	Fault = rt.Fault
	// FaultKind selects what an injected fault does to its worker.
	FaultKind = rt.FaultKind
)

// Work emulation modes for RunConfig.Work.
const (
	WorkNone  = rt.WorkNone
	WorkSpin  = rt.WorkSpin
	WorkSleep = rt.WorkSleep
)

// Fault kinds for FaultPlan entries.
const (
	FaultStall = rt.FaultStall
	FaultSlow  = rt.FaultSlow
	FaultKill  = rt.FaultKill
)

// RandomFaultPlan derives a reproducible fault plan from a seed; worker
// 0 is never killed, so recovery always has a survivor.
func RandomFaultPlan(seed uint64, workers, stalls, kills int, maxAfter uint64, stallDur time.Duration) *FaultPlan {
	return rt.RandomFaultPlan(seed, workers, stalls, kills, maxAfter, stallDur)
}

// RunConfig describes a live execution for Run: the same scheduler and
// traffic vocabulary as SimConfig (the embedded StackConfig), executed
// on worker goroutines with SPSC rings instead of the simulator's
// virtual cores. The arrival process is the simulator's: a virtual-time
// event engine replays the Holt-Winters rate model over
// StackConfig.Traffic, so a live run and a simulation with the same
// StackConfig see the exact same packet sequence. One caveat: FCFS is
// simulator-only (it needs the shared queue) and returns an error here.
type RunConfig struct {
	StackConfig

	// Workers is the number of worker goroutines ("cores"); 0 means 4.
	// In shadow mode the engine gets Shadow.Cores workers, and a
	// nonzero Workers must equal it.
	Workers int
	// RingCap is each worker's SPSC ring capacity (rounded up to a power
	// of two); 0 means 256.
	RingCap int
	// Batch is the dispatch/consume batch size; 0 means 32.
	Batch int
	// Dispatchers, when > 0, replaces the single dispatcher goroutine
	// with the sharded data plane: N ingress shards partition flows by
	// CRC16 over the 5-tuple and resolve packet→worker lock-free against
	// an immutable forwarding snapshot, while a control-plane goroutine
	// runs the real scheduler off sampled observations and republishes
	// the snapshot on every state change (see docs/RUNTIME.md). Requires
	// a scheduler that can publish forwarding snapshots (LAPS, remapped
	// or not); incompatible with shadow mode, whose point is exact
	// per-decision conformance. 0 keeps the classic single-dispatcher
	// engine.
	Dispatchers int

	// RateScale multiplies all rates (scaled-down experiments).
	RateScale float64
	// Pace is the playback speed of the virtual arrival clock against
	// the wall clock: 1 replays in real time, 2 at double speed, 0.5 at
	// half. 0 (the default) dispatches as fast as possible.
	Pace float64

	// Block applies backpressure (stall the dispatcher) instead of
	// dropping when a worker's ring is full.
	Block bool
	// DisableFencing turns off ordering-safe migration, exposing the
	// reordering the fence exists to prevent (ablation).
	DisableFencing bool

	// Recycle routes retired and dropped packets back to the arrival
	// process through a shared pool, making the steady-state data path
	// allocation-free. With it enabled, a Handler must not retain the
	// *Packet after returning (the descriptor is zeroed and reused); see
	// docs/PERFORMANCE.md for the ownership rules. Off by default for
	// exactly that reason.
	Recycle bool

	// Work emulates per-packet processing cost (default WorkNone).
	Work WorkKind
	// WorkFactor scales the modeled service time into real time; 0
	// means 1.
	WorkFactor float64
	// Handler, when set, runs on the owning worker for every packet.
	Handler func(worker int, p *Packet)

	// Trace, when non-nil, receives control-plane telemetry — the
	// scheduler's events plus the engine's drops and out-of-order
	// departures — stamped with the runtime clock (ns since start).
	Trace *Recorder
	// MetricsInterval, when positive, samples per-worker queue depths
	// and rates on the wall clock into EngineStats.Series.
	MetricsInterval time.Duration

	// Metrics, when non-nil, has the engine register its live telemetry
	// — latency/ring-wait/reorder/fence/recovery histograms, counters,
	// per-worker gauges — on the given registry, recorded during the run
	// (zero-alloc; see docs/OBSERVABILITY.md) and aggregated only when
	// scraped. Nil leaves recording off unless HTTPListener is set, in
	// which case Run builds a private registry (returned in
	// RunResult.Metrics). Live mode only.
	Metrics *MetricsRegistry
	// HTTPListener, when non-nil, serves an embedded admin HTTP
	// endpoint on this already-bound listener for the duration of the
	// run: Prometheus-format /metrics, /healthz fed by worker liveness,
	// /debug/vars, /debug/pprof. Bind it with net.Listen (":0" picks a
	// free port; the listener's Addr reports it). Run takes ownership
	// and closes it at the end of the run. Live mode only.
	HTTPListener net.Listener

	// Ingress, when non-nil, replaces the virtual-clock arrival process
	// with a real UDP front door: datagrams in the LAPS wire format are
	// read from the sockets in batches (recvmmsg vectors on Linux),
	// decoded into pooled packets — the CRC16 flow hash primed exactly
	// once at the socket — and fed to the live dispatcher one datagram
	// per burst, so ingress itself never reorders a flow. Mutually
	// exclusive with Traffic (the two are alternative arrival sources),
	// with Pace (wire packets already arrive on the wall clock) and with
	// shadow mode. With Ingress set, Duration is a wall-clock run length
	// and 0 means "until Context is cancelled" — a Context or a positive
	// Duration is required so the run has an end. See docs/INGRESS.md.
	Ingress *IngressConfig

	// Faults, when non-nil, injects deterministic worker faults into the
	// live run (stall / slow / kill at batch boundaries). Not available
	// in shadow mode, whose point is exact decision conformance.
	Faults *FaultPlan
	// DetectWindow enables the dispatcher-path health monitor: a worker
	// holding drainable backlog with no progress for this long is
	// quarantined, its stranded packets re-injected in order onto the
	// survivors, and its resident flows remapped. 0 disables monitoring
	// (crashed workers are then reaped lazily and at Stop).
	DetectWindow time.Duration

	// Context, when non-nil, allows clean shutdown: cancellation stops
	// dispatching and unblocks backpressured enqueues.
	Context context.Context

	// Shadow switches Run into conformance mode: instead of live
	// dispatch, the given simulation runs to completion and every
	// scheduling decision it makes is mirrored onto the live engine.
	// The scheduler sees only the simulator's state, so its decision
	// sequence (migrations, map splits, AFC promotions, ...) is
	// identical to Simulate(*Shadow) by construction — that is the
	// property the conformance tests pin. The scheduler, traffic and
	// seed come from the Shadow config's StackConfig (the embedded one
	// is unused); the mirror always applies backpressure so no mirrored
	// packet is lost.
	Shadow *SimConfig
}

// IngressConfig opens the UDP front door for Run (RunConfig.Ingress).
type IngressConfig struct {
	// Conns are the already-bound UDP sockets to read: one socket, or a
	// SO_REUSEPORT group from ListenUDP with one reader goroutine and
	// receive vector per socket — the parallel front door
	// (docs/INGRESS.md "Parallel ingress"). Binding first lets the
	// caller print the address (":0" picks a port) before traffic
	// arrives. Run takes ownership of every socket.
	Conns []net.PacketConn
	// Batch is the number of datagrams per receive batch (the recvmmsg
	// vector length on Linux); 0 means 32. With AdaptiveBatch it is the
	// initial length.
	Batch int
	// AdaptiveBatch grows and shrinks each socket's receive vector with
	// observed batch fill (Linux recvmmsg only): mostly-full windows
	// double it up to MaxBatch, mostly-empty ones halve it. Fill ratios
	// are exposed as the laps_ingress_batch_fill_percent histogram.
	AdaptiveBatch bool
	// MaxBatch caps the adaptive vector; 0 means 256.
	MaxBatch int
	// ReadBuffer resizes the socket's kernel receive buffer (SO_RCVBUF)
	// when positive. The kernel clamps the request to net.core.rmem_max;
	// the effective size is read back into IngressStats.RcvBuf — see
	// docs/INGRESS.md for sizing.
	ReadBuffer int
	// DrainGrace bounds how long shutdown keeps reading to drain
	// datagrams already queued in the kernel buffer; 0 means 500ms.
	// Shutdown returns as soon as the buffer is empty — the grace is a
	// ceiling, not a wait.
	DrainGrace time.Duration
}

// ListenUDP binds the front door's sockets for IngressConfig.Conns:
// sockets UDP sockets on addr (":0" picks a free port, shared by the
// group). With sockets > 1 each gets SO_REUSEPORT, and the kernel's
// 4-tuple hash pins each sender to one socket, so per-flow FIFO
// survives the fan-out. reuse reports whether REUSEPORT was used; on
// non-Linux platforms a request for more than one falls back to a
// single socket.
func ListenUDP(addr string, sockets int) (conns []net.PacketConn, reuse bool, err error) {
	return ingress.ListenGroup(addr, sockets)
}

// IngressStats are the front door's receive-side counters.
type IngressStats = ingress.Stats

// RunResult is the outcome of Run.
type RunResult struct {
	// Live are the runtime engine's counters (EngineStats).
	Live EngineStats
	// Generated is the number of packets the arrival process offered.
	Generated uint64
	// Scheduler names the scheduler that ran.
	Scheduler string
	// LapsStats is non-nil when the LAPS scheduler ran.
	LapsStats *SchedulerStats
	// Sim is non-nil in shadow mode: the embedded simulation's result.
	Sim *SimResult
	// Metrics is the registry the run recorded live telemetry into:
	// RunConfig.Metrics when set, a private registry when only an admin
	// server was requested, nil when telemetry was off.
	Metrics *MetricsRegistry
	// Ingress is non-nil when the run was fed by the UDP front door:
	// its datagram/decode counters, aggregated across sockets.
	// Generated then counts decoded packets, so Generated -
	// Live.Dispatched is always zero and sender-side loss is measured
	// as sent - Generated.
	Ingress *IngressStats
	// IngressSockets holds each front-door socket's own counters
	// (index = socket in IngressConfig.Conns), so a multi-socket run
	// shows how the kernel's REUSEPORT hash spread the load. Nil when
	// RunConfig.Ingress was nil.
	IngressSockets []IngressStats
}

// Run executes a scheduler on real goroutine cores. Where Simulate
// models queueing and service time in virtual time, Run dispatches
// packets into per-worker SPSC rings and real goroutines retire them;
// ordering-safe migration (fencing), backpressure and drop accounting
// happen on the live data path. See docs/RUNTIME.md.
func Run(cfg RunConfig) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	if cfg.Shadow != nil {
		return runShadow(cfg)
	}
	return runLive(cfg)
}

// validate holds every check Run makes on RunConfig's own fields, so a
// config Run cannot execute is rejected before any socket is read, any
// listener served or any goroutine started.
func (cfg *RunConfig) validate() error {
	if cfg.Pace < 0 {
		return fmt.Errorf("laps: Pace must be >= 0, got %v (0 dispatches flat out, 1 replays in real time)", cfg.Pace)
	}
	if cfg.Dispatchers < 0 {
		return fmt.Errorf("laps: Dispatchers must be >= 0, got %d", cfg.Dispatchers)
	}
	if sh := cfg.Shadow; sh != nil {
		switch {
		case cfg.Faults != nil:
			return fmt.Errorf("laps: fault injection is incompatible with shadow mode — recovery re-routes packets, breaking decision conformance")
		case cfg.Dispatchers > 0:
			return fmt.Errorf("laps: Dispatchers is incompatible with shadow mode — sharded dispatch resolves packets against sampled snapshots, breaking decision conformance")
		case cfg.Ingress != nil:
			return fmt.Errorf("laps: Ingress is incompatible with shadow mode — the mirror replays the simulator's arrival sequence, not live wire traffic")
		case cfg.Metrics != nil || cfg.HTTPListener != nil:
			return fmt.Errorf("laps: live telemetry (Metrics / HTTPListener) is incompatible with shadow mode — the mirror replays simulator decisions on the live engine, so its latencies and queue depths measure the mirror, not the system")
		case cfg.Workers != 0 && cfg.Workers != sh.cores():
			return fmt.Errorf("laps: shadow mode needs Workers == Shadow.Cores (%d), got %d", sh.cores(), cfg.Workers)
		case sh.Scheduler == FCFS && sh.Custom == nil:
			return fmt.Errorf("laps: %s has no per-packet decisions to mirror", FCFS)
		}
		return nil
	}
	if cfg.Scheduler == FCFS && cfg.Custom == nil {
		return fmt.Errorf("laps: %s needs the simulator's shared queue; live workers each own a ring", FCFS)
	}
	if cfg.Ingress == nil {
		return nil
	}
	switch {
	case len(cfg.Traffic) > 0:
		return fmt.Errorf("laps: Ingress and Traffic are mutually exclusive arrival sources; feed the run from the socket or from the generator, not both")
	case cfg.Pace != 0:
		return fmt.Errorf("laps: Pace paces the virtual-clock replay; ingress packets already arrive on the wall clock")
	case len(cfg.Ingress.Conns) == 0:
		return fmt.Errorf("laps: Ingress needs at least one socket in Conns; bind them with ListenUDP")
	case cfg.Duration == 0 && cfg.Context == nil:
		return fmt.Errorf("laps: an ingress run needs a positive Duration or a cancellable Context to end")
	}
	return nil
}

// engineConfig is the runtime configuration both Run modes and both
// live owners share.
func (cfg *RunConfig) engineConfig(workers int, sched npsim.Scheduler) rt.Config {
	policy := rt.DropWhenFull
	if cfg.Block {
		policy = rt.BlockWhenFull
	}
	return rt.Config{
		Workers:         workers,
		RingCap:         cfg.RingCap,
		Batch:           cfg.Batch,
		Dispatchers:     cfg.Dispatchers,
		Sched:           sched,
		Policy:          policy,
		DisableFencing:  cfg.DisableFencing,
		Work:            cfg.Work,
		WorkFactor:      cfg.WorkFactor,
		Handler:         cfg.Handler,
		Recorder:        cfg.Trace,
		MetricsInterval: cfg.MetricsInterval,
		FlowBudget:      cfg.FlowBudget,
		Memory:          cfg.Memory,
		Faults:          cfg.Faults,
		DetectWindow:    cfg.DetectWindow,
	}
}

// engine is the live owner runLive and runIngress drive, as the method
// values of whichever one the config picked — the single-dispatcher
// Engine or the sharded data plane — so their arrival loops stay
// owner-agnostic.
type engine struct {
	start     func(context.Context)
	feed      func(*packet.Packet) bool
	feedBurst func([]*packet.Packet) int // one datagram's packets (docs/PERFORMANCE.md, "The burst path")
	flush     func()
	stop      func() *rt.Result
	health    func() []telemetry.WorkerState
	pool      *packet.Pool // where retired packets go; nil without Recycle
}

// newEngine builds the owner lc selects.
func newEngine(lc rt.Config) (*engine, error) {
	if lc.Dispatchers > 0 {
		e, err := rt.NewSharded(lc)
		if err != nil {
			return nil, err
		}
		// Shards drain their own ingress rings when idle: no flush.
		return &engine{e.Start, e.Ingest, e.IngestBurst, func() {}, e.Stop, e.Health, lc.Pool}, nil
	}
	e, err := rt.New(lc)
	if err != nil {
		return nil, err
	}
	return &engine{e.Start, e.Dispatch, e.DispatchBurst, e.Flush, e.Stop, e.Health, lc.Pool}, nil
}

// runLive is the normal mode: the virtual-clock arrival process (or the
// UDP front door) feeds the live dispatcher directly, and the scheduler
// consults the live engine's state (real ring occupancy, real idle
// times).
func runLive(cfg RunConfig) (*RunResult, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	st, err := newStack(cfg.StackConfig, cfg.Workers, cfg.Ingress != nil)
	if err != nil {
		return nil, err
	}
	if rs, ok := st.sched.(npsim.RecorderSetter); ok && cfg.Trace != nil {
		rs.SetRecorder(cfg.Trace)
	}
	// An explicit registry turns recording on; an admin server without
	// one gets a private registry so /metrics has something to serve.
	res := &RunResult{Metrics: cfg.Metrics}
	if cfg.HTTPListener != nil && res.Metrics == nil {
		res.Metrics = telemetry.NewRegistry()
	}
	lc := cfg.engineConfig(cfg.Workers, st.sched)
	lc.Telemetry = res.Metrics
	if cfg.Recycle {
		lc.Pool = packet.NewPool()
	}
	eng, err := newEngine(lc)
	if err != nil {
		return nil, err
	}
	if cfg.HTTPListener != nil {
		srv := &http.Server{Handler: telemetry.NewAdminMux(res.Metrics, eng.health)}
		go srv.Serve(cfg.HTTPListener) //nolint:errcheck // ErrServerClosed on shutdown
		defer srv.Close()
	}

	if cfg.Ingress != nil {
		if err := runIngress(cfg, eng, res); err != nil {
			return nil, err
		}
	} else {
		// The sim engine here is purely an arrival sequencer: it runs
		// the Holt-Winters process in virtual time and hands each packet
		// (with its per-flow sequence number) to the live dispatcher.
		ctx := cfg.Context
		clock := sim.NewEngine()
		eng.start(ctx)
		wallStart := time.Now()
		sink := func(p *packet.Packet) {
			if ctx.Err() != nil {
				eng.pool.Put(p) // nil-safe; cancelled: drain the arrival process without dispatching
				return
			}
			if cfg.Pace > 0 {
				// Hold this arrival until the wall clock catches up with
				// its virtual timestamp at the requested playback speed.
				target := time.Duration(float64(p.Arrival) / cfg.Pace)
				if wait := target - time.Since(wallStart); wait > 0 {
					eng.flush() // publish partial batches before idling
					time.Sleep(wait)
				}
			}
			eng.feed(p)
		}
		tc := st.arrivals()
		tc.RateScale, tc.Pool = cfg.RateScale, eng.pool
		gen := traffic.NewGenerator(clock, tc, sink)
		gen.Start()
		clock.Run()
		res.Live = *eng.stop()
		res.Generated = gen.Generated()
	}
	res.Scheduler, res.LapsStats = st.report()
	return res, nil
}

// runIngress drives the live engine from the UDP front door instead of
// the virtual-clock arrival process: socket-reader goroutines (one per
// SO_REUSEPORT socket) decode datagrams and feed each one's packets to
// the dispatcher as a single burst until the context is cancelled or
// the wall-clock Duration elapses, then the group drains the kernel
// buffers (bounded by DrainGrace) and the engine drains its rings.
func runIngress(cfg RunConfig, eng *engine, res *RunResult) error {
	ic, ctx, reg := cfg.Ingress, cfg.Context, res.Metrics
	sink := func(ps []*packet.Packet) { eng.feedBurst(ps) }
	if ctx.Done() != nil {
		// A cancellable run must not keep dispatching what the drain
		// reads out of the kernel buffers: recycle those packets instead.
		sink = func(ps []*packet.Packet) {
			if ctx.Err() != nil {
				for _, p := range ps {
					eng.pool.Put(p) // nil-safe
				}
				return
			}
			eng.feedBurst(ps)
		}
	}
	var fill *telemetry.Hist
	if reg != nil {
		fill = reg.NewHist(telemetry.HistOpts{
			Name:   "laps_ingress_batch_fill_percent",
			Help:   "Receive-batch fill: datagrams received per batch as a percentage of vector slots offered.",
			MinExp: 0, MaxExp: 7, Lanes: len(ic.Conns),
		})
	}
	grp, err := ingress.NewGroup(ingress.GroupConfig{
		Conns:         ic.Conns,
		Batch:         ic.Batch,
		AdaptiveBatch: ic.AdaptiveBatch,
		MaxBatch:      ic.MaxBatch,
		Pool:          eng.pool,
		BurstSink:     sink,
		Flush:         eng.flush,
		ReadBuffer:    ic.ReadBuffer,
		DrainGrace:    ic.DrainGrace,
		FillHist:      fill,
	})
	if err != nil {
		return fmt.Errorf("laps: ingress: %w", err)
	}
	if reg != nil {
		reg.Counter("laps_ingress_datagrams_total",
			"Datagrams received by the UDP front door.", grp.Datagrams)
		reg.Counter("laps_ingress_packets_total",
			"Wire records decoded and fed to the dispatcher.", grp.Packets)
		reg.Counter("laps_ingress_malformed_total",
			"Datagrams rejected by the wire decoder.", grp.Malformed)
		registerIngressSocketMetrics(reg, grp)
	}
	eng.start(ctx)
	grp.Start(ctx)
	var timeout <-chan time.Time
	if cfg.Duration > 0 {
		t := time.NewTimer(time.Duration(cfg.Duration))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-ctx.Done():
	case <-timeout:
	}
	// Teardown order matters: the sockets stop (and drain) first so
	// the feeding goroutines are quiet before the engine drains its
	// rings.
	st := grp.Stop()
	res.Live = *eng.stop()
	if err := grp.Err(); err != nil {
		return fmt.Errorf("laps: ingress receive: %w", err)
	}
	res.Generated = st.Packets
	res.Ingress = &st
	res.IngressSockets = grp.SocketStats()
	return nil
}

// registerIngressSocketMetrics wires the per-socket receive families:
// datagram/packet counters so a scrape shows how the REUSEPORT hash
// spread senders, and the adaptive-batch counters and gauges that make
// vector sizing observable. Labels are socket="i".
func registerIngressSocketMetrics(reg *MetricsRegistry, grp *ingress.Group) {
	for i, l := range grp.Listeners() {
		l := l
		lbl := `socket="` + strconv.Itoa(i) + `"`
		reg.CounterL("laps_ingress_socket_datagrams_total", lbl,
			"Datagrams received, per REUSEPORT socket.", l.Datagrams)
		reg.CounterL("laps_ingress_socket_packets_total", lbl,
			"Wire records decoded, per REUSEPORT socket.", l.Packets)
		reg.CounterL("laps_ingress_batches_total", lbl,
			"Receive batches that delivered at least one datagram.", func() uint64 {
				return l.Stats().Batches
			})
		reg.CounterL("laps_ingress_batch_grows_total", lbl,
			"Adaptive receive-vector doublings.", func() uint64 {
				return l.Stats().BatchGrows
			})
		reg.CounterL("laps_ingress_batch_shrinks_total", lbl,
			"Adaptive receive-vector halvings.", func() uint64 {
				return l.Stats().BatchShrinks
			})
		reg.GaugeL("laps_ingress_vector_length", lbl,
			"Current receive-vector length (datagrams per recvmmsg).", func() float64 {
				return float64(l.Stats().VectorLen)
			})
		reg.GaugeL("laps_ingress_rcvbuf_bytes", lbl,
			"Effective SO_RCVBUF read back from the kernel (0 = unknown).", func() float64 {
				return float64(l.Stats().RcvBuf)
			})
	}
}

// runShadow is conformance mode: the full simulation stack runs
// unchanged, and a capture wrapper mirrors every (packet, target)
// decision onto the live engine as it is made.
func runShadow(cfg RunConfig) (*RunResult, error) {
	sh := cfg.Shadow
	st, err := newStack(sh.StackConfig, sh.cores(), false)
	if err != nil {
		return nil, err
	}
	cfg.Block = true // backpressure: no mirrored packet may be lost
	live, err := rt.New(cfg.engineConfig(sh.cores(), st.sched))
	if err != nil {
		return nil, err
	}
	live.Start(cfg.Context)
	simCfg := *sh
	simCfg.Custom = &mirrorScheduler{inner: st.sched, live: live}
	simRes, err := Simulate(simCfg)
	if err != nil {
		live.Stop()
		return nil, err
	}
	res := &RunResult{Live: *live.Stop(), Generated: simRes.Generated, Sim: simRes}
	res.Scheduler, res.LapsStats = st.report()
	return res, nil
}

// mirrorScheduler forwards decisions to the wrapped scheduler and
// replays each one onto the live engine with a copy of the packet. The
// wrapped scheduler's inputs — the packet and the *simulator's* view —
// are untouched, so its decision sequence is exactly what a plain
// Simulate would produce.
type mirrorScheduler struct {
	inner npsim.Scheduler
	live  *rt.Engine
}

// Name identifies the wrapped scheduler.
func (m *mirrorScheduler) Name() string { return m.inner.Name() }

// SetRecorder forwards telemetry wiring to the wrapped scheduler.
func (m *mirrorScheduler) SetRecorder(rec *obs.Recorder) {
	if rs, ok := m.inner.(npsim.RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// Target decides via the wrapped scheduler, then mirrors the decision.
func (m *mirrorScheduler) Target(p *packet.Packet, v npsim.View) int {
	t := m.inner.Target(p, v)
	q := *p
	m.live.DispatchTo(&q, t)
	return t
}
