// Package laps is a library-level reproduction of "Flow Migration on
// Multicore Network Processors: Load Balancing While Minimizing Packet
// Reordering" (Iqbal et al., ICPP 2013).
//
// It provides, as reusable components:
//
//   - the LAPS packet scheduler (NewScheduler): per-service map tables,
//     incremental (linear) hashing, migration tables, and dynamic core
//     allocation;
//   - the Aggressive Flow Detector (NewDetector): a two-level LFU cache
//     structure that identifies heavy-hitter flows at line rate without
//     per-flow state — usable standalone for heavy-hitter detection;
//   - a deterministic network-processor simulator (Simulate) with the
//     paper's delay model, baselines (FCFS, hash-only, AFS, Shi-style
//     top-k oracle) and metrics (drops, reordering, cold caches,
//     migrations);
//   - synthetic trace sources with realistic elephant/mice structure,
//     plus pcap I/O (CAIDATrace/AucklandTrace/NewTrace, ReadPcap);
//   - the full experiment harness regenerating every table and figure of
//     the paper's evaluation (RunExperiment).
//
// See examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package laps

import (
	"fmt"
	"io"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/exp"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	"laps/internal/power"
	"laps/internal/rob"
	"laps/internal/sim"
	"laps/internal/stats"
	"laps/internal/trace"
	"laps/internal/traffic"
)

// Re-exported foundation types. Aliases keep the internal packages as
// the single source of truth while giving users one import path.
type (
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// FlowKey is the 5-tuple flow identifier.
	FlowKey = packet.FlowKey
	// Packet is the descriptor the scheduler places onto cores.
	Packet = packet.Packet
	// ServiceID names a router service (a path through the task graph).
	ServiceID = packet.ServiceID

	// Detector is the Aggressive Flow Detector (paper §III-F).
	Detector = afd.Detector
	// DetectorConfig parameterises a Detector.
	DetectorConfig = afd.Config
	// DetectorStats are the detector's activity counters.
	DetectorStats = afd.Stats
	// ExactCounter keeps exact per-flow counts (ground truth / oracle).
	ExactCounter = afd.ExactCounter

	// Scheduler is the LAPS scheduler (paper §III).
	Scheduler = core.LAPS
	// SchedulerConfig parameterises a Scheduler.
	SchedulerConfig = core.Config
	// SchedulerStats are LAPS's control-plane counters.
	SchedulerStats = core.Stats

	// CoreScheduler is the interface any packet scheduler implements to
	// drive the simulator: it picks a core for each arriving packet.
	CoreScheduler = npsim.Scheduler
	// SystemView is the read-only state a scheduler may consult.
	SystemView = npsim.View
	// Metrics aggregates a simulation's results.
	Metrics = npsim.Metrics

	// TraceSource yields packet headers in arrival order.
	TraceSource = trace.Source
	// TraceConfig parameterises a synthetic trace.
	TraceConfig = trace.SynthConfig
	// TraceRecord is one packet-header observation.
	TraceRecord = trace.Record
	// TimedRecord is a trace record with a timestamp (pcap I/O).
	TimedRecord = trace.TimedRecord

	// RateParams are the Holt-Winters traffic coefficients (eq. 1).
	RateParams = traffic.RateParams
	// ChurnConfig parameterises a flow-churn trace source: a bounded
	// live population of short flows with unbounded distinct-flow count
	// (the FlowBudget stress family; see docs/SCALE.md).
	ChurnConfig = traffic.ChurnConfig
	// LifetimeDist selects a churn source's flow-lifetime distribution.
	LifetimeDist = traffic.LifetimeDist

	// CoreReport is one core's activity snapshot (busy time, idle
	// intervals) for energy and balance analysis.
	CoreReport = npsim.CoreReport
	// PowerModel is the three-state (active/idle/gated) core power model.
	PowerModel = power.Model
	// PowerEstimate is a system-wide energy result.
	PowerEstimate = power.Estimate
	// ReorderStats are an egress re-order buffer's counters.
	ReorderStats = rob.Stats

	// Options are the experiment-harness knobs.
	Options = exp.Options
	// Table is a rendered experiment result.
	Table = exp.Table

	// Recorder is the ring-buffered telemetry event recorder. A nil
	// *Recorder is a safe no-op, so instrumentation can stay wired in
	// permanently and cost one branch when tracing is off.
	Recorder = obs.Recorder
	// Event is one recorded control-plane event (migration, map split,
	// core steal, drop, ...).
	Event = obs.Event
	// EventKind classifies telemetry events.
	EventKind = obs.Kind
	// Sink consumes drained telemetry events (JSONL, Chrome trace).
	Sink = obs.Sink
	// Series is the columnar time series the metrics sampler produces.
	Series = stats.Series

	// MetricsRegistry collects the live runtime's telemetry — lock-free
	// latency/reorder/fence/recovery histograms, counters, per-worker
	// gauges — recorded during a Run and aggregated only at scrape time.
	// Pass one in RunConfig.Metrics (or set RunConfig.HTTPListener and let
	// Run build one); read it with WritePrometheus or Snapshot. See
	// docs/OBSERVABILITY.md.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is one aggregated histogram state (counts, sum,
	// max) read from a MetricsRegistry.
	MetricsSnapshot = telemetry.HistSnapshot
	// WorkerHealth is one worker's liveness as reported by /healthz.
	WorkerHealth = telemetry.WorkerState

	// MemoryClass selects how flow state behaves past
	// StackConfig.FlowBudget: exact, bounded from the start, or
	// auto-degrading.
	MemoryClass = npsim.MemoryClass
)

// Flow-state memory regimes for StackConfig.Memory (docs/SCALE.md).
const (
	// MemoryAuto (the zero value) starts exact and degrades to bounded
	// state when live flows exceed FlowBudget: a sampled reorder witness
	// (and, in the simulator, a hash-bucket affinity table).
	MemoryAuto = npsim.MemoryAuto
	// MemoryExact never degrades; FlowBudget becomes a hard cap on
	// concurrently tracked flows (oldest evicted first).
	MemoryExact = npsim.MemoryExact
	// MemorySketch uses bounded structures from the start. The name
	// predates the sampled witness that replaced the reorder sketch.
	MemorySketch = npsim.MemorySketch
)

// ParseMemoryClass parses "auto", "exact" or "sketch" (CLI flags).
func ParseMemoryClass(s string) (MemoryClass, error) { return npsim.ParseMemoryClass(s) }

// Telemetry event kinds (see docs/OBSERVABILITY.md).
const (
	EvFlowMigration = obs.EvFlowMigration
	EvMapSplit      = obs.EvMapSplit
	EvMapMerge      = obs.EvMapMerge
	EvCoreSteal     = obs.EvCoreSteal
	EvCorePark      = obs.EvCorePark
	EvCoreReturn    = obs.EvCoreReturn
	EvSurplusMark   = obs.EvSurplusMark
	EvSurplusUnmark = obs.EvSurplusUnmark
	EvAFCPromote    = obs.EvAFCPromote
	EvAFCDemote     = obs.EvAFCDemote
	EvAFCInvalidate = obs.EvAFCInvalidate
	EvOOODepart     = obs.EvOOODepart
	EvDrop          = obs.EvDrop
	// Live-runtime fault events (docs/RUNTIME.md).
	EvWorkerStall = obs.EvWorkerStall
	EvWorkerDead  = obs.EvWorkerDead
	EvRecovery    = obs.EvRecovery
	// Sharded data-plane events (Dispatchers > 0).
	EvSnapshotPublish = obs.EvSnapshotPublish
	// Span events: start/end pairs bracketing drain fences and worker
	// recoveries; Chrome trace sinks render them as durations.
	EvFenceStart    = obs.EvFenceStart
	EvFenceEnd      = obs.EvFenceEnd
	EvRecoveryStart = obs.EvRecoveryStart
	EvRecoveryEnd   = obs.EvRecoveryEnd
)

// NewMetricsRegistry builds an empty live-telemetry registry for
// RunConfig.Metrics. Build a fresh registry per run: each Run
// registers its engine's metric families, so a reused registry would
// expose duplicate series mixing two runs' counts.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewRecorder builds a telemetry recorder holding up to capacity events
// (<= 0 selects the 65536-event default). Pass it to SimConfig.Trace or
// a Scheduler/Detector SetRecorder, then Drain into a Sink.
func NewRecorder(capacity int) *Recorder { return obs.NewRecorder(capacity) }

// NewJSONLSink writes drained events as one JSON object per line.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// NewChromeTraceSink writes drained events in Chrome's trace-event JSON
// format, loadable in chrome://tracing or https://ui.perfetto.dev.
func NewChromeTraceSink(w io.Writer) Sink { return obs.NewChromeTraceSink(w) }

// Time unit constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// The paper's four services (task-graph paths, Fig 5).
const (
	SvcVPNOut      = packet.SvcVPNOut
	SvcIPForward   = packet.SvcIPForward
	SvcMalwareScan = packet.SvcMalwareScan
	SvcVPNIn       = packet.SvcVPNIn
	NumServices    = packet.NumServices
)

// NewDetector builds an Aggressive Flow Detector. Zero-valued config
// fields take the paper's defaults (16-entry AFC, 512-entry annex).
func NewDetector(cfg DetectorConfig) *Detector { return afd.New(cfg) }

// NewExactCounter builds an exact per-flow counter for ground truth.
func NewExactCounter() *ExactCounter { return afd.NewExactCounter() }

// EvaluateDetector scores detected flows against the true top-k.
func EvaluateDetector(detected []FlowKey, truth *ExactCounter, k int) afd.Accuracy {
	return afd.Evaluate(detected, truth, k)
}

// NewScheduler builds a LAPS scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return core.New(cfg) }

// NewTrace builds a synthetic trace source.
func NewTrace(cfg TraceConfig) TraceSource { return trace.NewSynthetic(cfg) }

// Flow-lifetime distributions for ChurnConfig.Lifetime.
const (
	LifetimeGeometric = traffic.LifetimeGeometric
	LifetimePareto    = traffic.LifetimePareto
	LifetimeFixed     = traffic.LifetimeFixed
)

// NewChurnTrace builds a flow-churn trace source: every packet belongs
// to one of ChurnConfig.Concurrent live flows, and finished flows are
// replaced by brand-new ones, so a long run visits far more distinct
// flows than are ever live. Pair it with StackConfig.FlowBudget to
// exercise the bounded-memory path (docs/SCALE.md).
func NewChurnTrace(cfg ChurnConfig) TraceSource { return traffic.NewChurn(cfg) }

// ChurnTrace returns the i-th million-flow churn preset (the scale
// workload of docs/SCALE.md).
func ChurnTrace(i int) TraceSource { return traffic.MillionFlowChurn(i) }

// CAIDATrace returns the i-th CAIDA-like synthetic trace preset.
func CAIDATrace(i int) TraceSource { return trace.CAIDALike(i) }

// AucklandTrace returns the i-th Auckland-like synthetic trace preset.
func AucklandTrace(i int) TraceSource { return trace.AucklandLike(i) }

// ReadPcap parses a classic pcap capture into timed records.
func ReadPcap(r io.Reader) ([]TimedRecord, error) { return trace.ReadPcap(r) }

// WritePcap serialises records as a classic pcap capture.
func WritePcap(w io.Writer, recs []TimedRecord) error { return trace.WritePcap(w, recs) }

// ReplayTrace wraps records as a TraceSource, optionally looping.
func ReplayTrace(name string, recs []TraceRecord, loop bool) TraceSource {
	return trace.NewReplay(name, recs, loop)
}

// DefaultPowerModel returns a plausible embedded-IOP power model.
func DefaultPowerModel() PowerModel { return power.DefaultModel() }

// AnalyzePower integrates a power model over a run's per-core reports.
func AnalyzePower(cores []CoreReport, span Time, m PowerModel) PowerEstimate {
	return power.Analyze(cores, span, m)
}

// RunExperiment executes one named paper experiment ("fig7", "fig8a",
// ...). Experiments() lists the available names.
func RunExperiment(name string, opts Options) ([]Table, error) {
	return exp.Run(name, opts)
}

// Experiments returns the available experiment names.
func Experiments() []string { return exp.Names() }

// SchedulerKind selects a built-in scheduler for Simulate.
type SchedulerKind string

// Built-in schedulers.
const (
	LAPS     SchedulerKind = "laps"      // the paper's scheduler
	FCFS     SchedulerKind = "fcfs"      // shared-queue first-come-first-served
	AFS      SchedulerKind = "afs"       // Dittmann's arbitrary flow shift
	HashOnly SchedulerKind = "hash-only" // static CRC16, no migration
	Oracle   SchedulerKind = "oracle"    // Shi-style exact top-16 migration
)

// ServiceTraffic describes one service's offered load for Simulate.
type ServiceTraffic struct {
	Service ServiceID
	Params  RateParams
	Trace   TraceSource
}

// StackConfig is the scheduler-and-traffic vocabulary shared by both
// execution engines. SimConfig (the discrete-event simulator) and
// RunConfig (the live goroutine runtime) embed it, so the two entry
// points consume identical knobs and cannot drift: a Simulate and a
// Run built from the same StackConfig see the same scheduler state and
// the exact same packet sequence.
type StackConfig struct {
	// Scheduler picks a built-in scheduler; ignored when Custom is set.
	// Empty means LAPS.
	Scheduler SchedulerKind
	// Custom plugs in any CoreScheduler implementation.
	Custom CoreScheduler
	// Consolidate enables LAPS's power-aware core parking: calm
	// services fold their traffic onto fewer cores so the rest idle in
	// long, gateable blocks (companion-work behaviour, paper refs
	// [20],[29]). Only meaningful with Scheduler == LAPS.
	Consolidate bool
	// Traffic lists the offered load per service (at least one entry).
	Traffic []ServiceTraffic
	// Duration is the traffic window in virtual time; 0 means 50 ms.
	Duration Time
	// TimeCompression maps virtual seconds to rate-model seconds; 0
	// means 1.
	TimeCompression float64
	// CBRArrivals uses paced (±50% jitter) instead of Poisson arrivals.
	CBRArrivals bool
	// Seed drives all randomness (arrivals and the scheduler's AFD);
	// 0 means 1.
	Seed uint64
	// FlowBudget bounds how many flows may hold exact per-flow state
	// (reorder watermarks, affinity entries) at once; 0 means unbounded.
	// What happens past the budget is Memory's call. Fence records need
	// no budget: the live engines bound them by what the rings hold in
	// flight. See docs/SCALE.md.
	FlowBudget int
	// Memory selects the flow-state regime: MemoryAuto (the zero value)
	// keeps exact state and degrades to a sampled reorder witness only
	// when FlowBudget is exceeded; MemoryExact never degrades (the
	// budget becomes a hard cap on tracked flows); MemorySketch runs
	// bounded from the start. See docs/SCALE.md for
	// what the witness sees and what it cannot.
	Memory MemoryClass
}

// SimConfig describes a custom simulation for Simulate. The embedded
// StackConfig carries the scheduler/traffic knobs shared with Run.
type SimConfig struct {
	StackConfig

	// Cores is the processor size; 0 means 16 (Table III).
	Cores int
	// QueueCap is the per-core descriptor queue; 0 means 32.
	QueueCap int
	// RestoreOrder attaches an egress re-order buffer (order
	// *restoration*, the alternative the paper contrasts in related
	// work [35]) and reports its cost in SimResult.Restored.
	RestoreOrder bool
	// Trace, when non-nil, records control-plane telemetry events
	// (flow migrations, map splits/merges, core steals, AFC activity,
	// drops, out-of-order departures) during the run. Drain it into a
	// Sink afterwards.
	Trace *Recorder
	// MetricsInterval, when positive, samples per-core queue depths,
	// drop and reordering rates — plus per-service core counts and AFD
	// hit rates under LAPS — every interval of simulated time into
	// SimResult.Series.
	MetricsInterval Time
}

// SimResult is the outcome of Simulate.
type SimResult struct {
	// Metrics are the simulator's aggregate counters.
	Metrics Metrics
	// Generated is the number of packets offered.
	Generated uint64
	// Duration is the traffic window that was simulated.
	Duration Time
	// Scheduler names the scheduler that ran.
	Scheduler string
	// LapsStats is non-nil when the LAPS scheduler ran.
	LapsStats *SchedulerStats
	// Cores are per-core activity reports (for AnalyzePower etc.).
	Cores []CoreReport
	// Restored is non-nil when RestoreOrder was set: the re-order
	// buffer's statistics plus the out-of-order count *after*
	// restoration.
	Restored *RestoredOrder
	// Series is non-nil when MetricsInterval was set: the sampled
	// telemetry time series (WriteCSV renders it).
	Series *Series
}

// RestoredOrder reports what egress order restoration cost and achieved.
type RestoredOrder struct {
	// OutOfOrderAfter counts packets still out of order at final egress.
	OutOfOrderAfter uint64
	// Buffer are the re-order buffer's internal counters.
	Buffer ReorderStats
}

// cores is the processor size Simulate models: Cores, or Table III's 16.
func (c *SimConfig) cores() int {
	if c.Cores == 0 {
		return 16
	}
	return c.Cores
}

// stack is a StackConfig resolved for one run: defaults filled, Traffic
// checked, the scheduler built. Simulate and both Run modes start from
// one, so a live run and a simulation with the same knobs and seed get
// byte-identical scheduler state and the same packet sequence.
type stack struct {
	StackConfig
	// sched is nil for FCFS, which has no per-core scheduler at all: the
	// simulator models it with a single shared queue, the live runtime
	// cannot.
	sched npsim.Scheduler
}

// newStack fills cfg's defaults, checks its Traffic and builds its
// scheduler over cores. wire marks an ingress-fed run: the socket may
// carry any service ID, so the scheduler partitions cores over all of
// them, and Duration 0 stays 0 ("until cancelled").
func newStack(cfg StackConfig, cores int, wire bool) (*stack, error) {
	if cfg.Duration == 0 && !wire {
		cfg.Duration = 50 * Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = LAPS
	}
	var active [packet.NumServices]bool
	if wire {
		for svc := range active {
			active[svc] = true
		}
	} else if len(cfg.Traffic) == 0 {
		return nil, fmt.Errorf("laps: need at least one Traffic entry")
	}
	for _, t := range cfg.Traffic {
		switch {
		case t.Service >= packet.NumServices:
			return nil, fmt.Errorf("laps: service IDs must be < %d", packet.NumServices)
		case t.Trace == nil:
			return nil, fmt.Errorf("laps: service %v has no trace source", t.Service)
		case active[t.Service]:
			return nil, fmt.Errorf("laps: duplicate Traffic entry for service %v; merge the two sources or use distinct service IDs", t.Service)
		}
		active[t.Service] = true
	}

	st := &stack{StackConfig: cfg}
	switch {
	case cfg.Custom != nil:
		st.sched = cfg.Custom
	case cfg.Scheduler == LAPS:
		// Build LAPS over the *active* services only, remapping sparse
		// service IDs onto a compact range, so traffic-less services do
		// not hold cores.
		var remap [packet.NumServices]ServiceID
		n, dense := 0, true
		for svc, on := range active {
			if on {
				remap[svc] = ServiceID(n)
				dense = dense && svc == n
				n++
			}
		}
		if cores < n {
			return nil, fmt.Errorf("laps: %d cores cannot host %d services", cores, n)
		}
		l := NewScheduler(SchedulerConfig{
			TotalCores:  cores,
			Services:    n,
			Consolidate: cfg.Consolidate,
			AFD:         afd.Config{Seed: cfg.Seed},
		})
		st.sched = l
		if !dense {
			st.sched = newRemapScheduler(l, remap)
		}
	case cfg.Scheduler == FCFS: // sched stays nil
	case cfg.Scheduler == AFS:
		st.sched = NewAFSScheduler()
	case cfg.Scheduler == HashOnly:
		st.sched = NewHashScheduler()
	case cfg.Scheduler == Oracle:
		st.sched = NewOracleScheduler(16)
	default:
		return nil, fmt.Errorf("laps: unknown scheduler %q", cfg.Scheduler)
	}
	return st, nil
}

// arrivals is the stack's Holt-Winters arrival process: what Simulate
// injects into the model and what runLive replays onto the live engine.
func (s *stack) arrivals() traffic.Config {
	var sources []traffic.ServiceSource
	for _, tr := range s.Traffic {
		sources = append(sources, traffic.ServiceSource{
			Service: tr.Service, Params: tr.Params, Trace: tr.Trace,
		})
	}
	arrivals := traffic.Poisson
	if s.CBRArrivals {
		arrivals = traffic.CBR
	}
	return traffic.Config{
		Sources:         sources,
		Duration:        s.Duration,
		TimeCompression: s.TimeCompression,
		Arrivals:        arrivals,
		Seed:            s.Seed,
	}
}

// report names the scheduler that ran and, for LAPS, reads its
// counters: the two result fields SimResult and RunResult share.
func (s *stack) report() (name string, stats *SchedulerStats) {
	if s.sched == nil {
		return string(FCFS), nil
	}
	if l := lapsOf(s.sched); l != nil {
		st := l.Stats()
		stats = &st
	}
	return s.sched.Name(), stats
}

// Simulate builds the full stack — traffic generator, scheduler,
// processor model — runs it to completion and returns the metrics.
func Simulate(cfg SimConfig) (*SimResult, error) {
	st, err := newStack(cfg.StackConfig, cfg.cores(), false)
	if err != nil {
		return nil, err
	}
	sysCfg := npsim.DefaultConfig()
	sysCfg.NumCores = cfg.cores()
	if cfg.QueueCap > 0 {
		sysCfg.QueueCap = cfg.QueueCap
	}
	sysCfg.FlowBudget = cfg.FlowBudget
	sysCfg.Memory = cfg.Memory
	sysCfg.SharedQueue = st.sched == nil

	sys, gen := exp.NewSim(sysCfg, st.sched, st.arrivals())
	eng := sys.Engine()
	if cfg.Trace != nil {
		sys.SetRecorder(cfg.Trace)
	}
	var sampler *obs.Sampler
	if cfg.MetricsInterval > 0 {
		probes := sys.Probes()
		if l := lapsOf(st.sched); l != nil {
			probes = append(probes, l.Probes(sys)...)
		}
		sampler = obs.NewSampler(cfg.MetricsInterval, probes...)
		sampler.Schedule(eng, st.Duration)
	}

	var tracker *npsim.ReorderTracker
	var buf *rob.Buffer
	if cfg.RestoreOrder {
		tracker = npsim.NewTracker(npsim.TrackerConfig{
			FlowBudget: cfg.FlowBudget, Memory: cfg.Memory,
		})
		// The buffer keeps packets after Push, so a descriptor's life
		// ends where the buffer releases it, not at departure.
		buf = rob.New(eng, rob.Config{}, func(p *packet.Packet) {
			tracker.Record(p)
			sys.Free.Put(p)
		})
		sys.OnDepart = buf.Push
	}

	gen.Start()
	eng.Run()
	if buf != nil {
		buf.Flush()
	}

	res := &SimResult{
		Metrics:   *sys.Metrics(),
		Generated: gen.Generated(),
		Duration:  st.Duration,
		Cores:     sys.CoreReports(),
	}
	res.Scheduler, res.LapsStats = st.report()
	if buf != nil {
		res.Restored = &RestoredOrder{
			OutOfOrderAfter: tracker.OutOfOrder(),
			Buffer:          buf.Stats(),
		}
	}
	if sampler != nil {
		res.Series = sampler.Series()
	}
	return res, nil
}

// remapScheduler translates sparse service IDs onto the compact range a
// LAPS instance was built for, leaving the packet seen by the simulator
// (and its delay model) untouched. Its views and the runs it trains on
// carry the compact IDs too, so a remapped LAPS resolves and learns
// exactly as an unwrapped one.
type remapScheduler struct {
	inner remapInner
	remap [packet.NumServices]ServiceID
}

// newRemapScheduler wraps inner behind remap.
func newRemapScheduler(inner remapInner, remap [packet.NumServices]ServiceID) *remapScheduler {
	return &remapScheduler{inner: inner, remap: remap}
}

// remapInner is what a remapScheduler wraps: a scheduler that publishes
// forwarding views and trains on weighted runs, as core.LAPS does.
type remapInner interface {
	npsim.SnapshotProvider
	npsim.BurstScheduler
}

// lapsOf unwraps a scheduler (possibly remap- or mirror-wrapped) to its
// LAPS core, or nil if the scheduler is not LAPS.
func lapsOf(s npsim.Scheduler) *core.LAPS {
	for {
		switch w := s.(type) {
		case *remapScheduler:
			s = w.inner
		case *mirrorScheduler:
			s = w.inner
		default:
			l, _ := s.(*core.LAPS)
			return l
		}
	}
}

// Name identifies the wrapped scheduler.
func (r *remapScheduler) Name() string { return r.inner.Name() }

// SetRecorder forwards telemetry wiring to the wrapped scheduler.
func (r *remapScheduler) SetRecorder(rec *obs.Recorder) {
	if rs, ok := r.inner.(npsim.RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// Target forwards to the wrapped scheduler with the remapped service ID.
func (r *remapScheduler) Target(p *packet.Packet, v npsim.View) int {
	q := *p
	q.Service = r.remap[p.Service]
	return r.inner.Target(&q, v)
}

// TargetN forwards a run of n packets with the remapped service ID, so
// a remapped LAPS still trains on the lane's sample: one call per run,
// at the sampled weight, on either lane owner.
func (r *remapScheduler) TargetN(p *packet.Packet, n int, v npsim.View) int {
	q := *p
	q.Service = r.remap[p.Service]
	return r.inner.TargetN(&q, n, v)
}

// Generation forwards the wrapped scheduler's snapshot generation.
func (r *remapScheduler) Generation() uint64 { return r.inner.Generation() }

// Snapshot wraps the inner scheduler's forwarding view so lookups see
// remapped service IDs, mirroring what Target does on the live path.
func (r *remapScheduler) Snapshot(now sim.Time) npsim.Forwarder {
	return &remapForwarder{inner: r.inner.Snapshot(now), remap: r.remap}
}

// remapForwarder is the data-plane twin of remapScheduler: a frozen
// forwarding view that remaps sparse service IDs before each lookup.
type remapForwarder struct {
	inner npsim.Forwarder
	remap [packet.NumServices]ServiceID
}

// Forward resolves the packet against the wrapped view under its
// compact service ID.
func (r *remapForwarder) Forward(p *packet.Packet) int {
	q := *p
	q.Service = r.remap[p.Service]
	return r.inner.Forward(&q)
}
