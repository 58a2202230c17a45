package traffic

import (
	"math/rand/v2"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// ServiceSource couples one service's rate model with the trace that
// supplies its flow identities (the paper uses "a separate packet trace
// for each path of the flow graph", Table V).
type ServiceSource struct {
	Service packet.ServiceID
	Params  RateParams
	Trace   trace.Source
}

// Config parameterises a Generator.
type Config struct {
	// Sources lists the active services. At least one is required.
	Sources []ServiceSource
	// Duration is how long (in sim time) to generate traffic.
	Duration sim.Time
	// TimeCompression maps sim time to the rate model's time axis:
	// model_seconds = sim_seconds * TimeCompression. With 30, a 2 s
	// simulation sweeps the dynamics of a 60 s model run at unchanged
	// packet rates. 0 means 1 (no compression).
	TimeCompression float64
	// RateScale multiplies all rates, for scaled-down experiments where
	// the core count is also scaled. 0 means 1.
	RateScale float64
	// NoiseHold is how long (model seconds) one noise sample n(σ) stays
	// in effect. 0 means 0.01 s.
	NoiseHold float64
	// Arrivals selects the interarrival discipline: Poisson (default)
	// or CBR, constant-rate arrivals with ±50%% uniform jitter. The
	// paper's SpecC packet generator paces packets at the programmed
	// rate (CBR-like); Poisson adds transient burstiness on top of the
	// Holt-Winters envelope.
	Arrivals Arrivals
	// Seed drives arrival randomness.
	Seed uint64
	// Pool, when non-nil, supplies the emitted packets: the live
	// engine's *packet.Pool or the simulator's *packet.FreeList. Pair it
	// with the consumer that returns retired packets to the same value,
	// so they cycle back here and steady-state generation allocates
	// nothing.
	Pool Descriptors
}

// Descriptors is where a Generator draws its packet descriptors from.
type Descriptors interface {
	// Get returns a zeroed descriptor.
	Get() *packet.Packet
}

// Arrivals is an interarrival discipline.
type Arrivals int

// Supported disciplines.
const (
	Poisson Arrivals = iota
	CBR
)

// Generator produces packet arrivals on a sim.Engine and hands them to a
// sink (the scheduler's ingress).
type Generator struct {
	eng       *sim.Engine
	cfg       Config
	sink      func(*packet.Packet)
	rng       *rand.Rand
	nextID    uint64
	flowSeq   *flowtab.Table[uint64]
	generated uint64
	perSvc    [packet.NumServices]uint64
	states    []*svcState
}

type svcState struct {
	src        ServiceSource
	noise      float64
	noiseUntil float64  // model seconds
	start      sim.Time // generation-window origin
	emit       func()   // pre-bound arrival callback (one closure per service, not per packet)
}

// NewGenerator builds a generator. Packets are delivered to sink in
// nondecreasing arrival-time order (the engine guarantees it).
func NewGenerator(eng *sim.Engine, cfg Config, sink func(*packet.Packet)) *Generator {
	if len(cfg.Sources) == 0 {
		panic("traffic: generator needs at least one source")
	}
	if cfg.Duration <= 0 {
		panic("traffic: generator needs a positive duration")
	}
	if cfg.TimeCompression == 0 {
		cfg.TimeCompression = 1
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.NoiseHold == 0 {
		cfg.NoiseHold = 0.01
	}
	if cfg.Pool == nil {
		cfg.Pool = (*packet.FreeList)(nil) // nil-safe: Get allocates
	}
	g := &Generator{
		eng:     eng,
		cfg:     cfg,
		sink:    sink,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0xB5297A4D3F84D5B5)),
		flowSeq: flowtab.New[uint64](1 << 16),
	}
	for _, s := range cfg.Sources {
		g.states = append(g.states, &svcState{src: s, noiseUntil: -1})
	}
	return g
}

// Start schedules the first arrival of every service. Call once before
// running the engine.
func (g *Generator) Start() {
	start := g.eng.Now()
	for _, st := range g.states {
		st := st
		st.start = start
		st.emit = func() { g.arrive(st) }
		g.eng.At(start+g.gap(st), st.emit)
	}
}

// Generated reports the number of packets emitted so far.
func (g *Generator) Generated() uint64 { return g.generated }

// modelTime converts a sim time to model seconds for the rate equations.
func (g *Generator) modelTime(t sim.Time) float64 {
	return t.Seconds() * g.cfg.TimeCompression
}

// rate evaluates the service's current rate in packets per sim-second.
func (g *Generator) rate(st *svcState) float64 {
	mt := g.modelTime(g.eng.Now())
	if mt >= st.noiseUntil {
		st.noise = g.rng.NormFloat64()
		st.noiseUntil = mt + g.cfg.NoiseHold
	}
	mpps := st.src.Params.Rate(mt, st.noise) * g.cfg.RateScale
	return mpps * 1e6
}

// gap draws an interarrival for the service's current rate under the
// configured discipline.
func (g *Generator) gap(st *svcState) sim.Time {
	lambda := g.rate(st) // packets per second
	var gapSec float64
	if g.cfg.Arrivals == CBR {
		gapSec = (0.5 + g.rng.Float64()) / lambda
	} else {
		gapSec = g.rng.ExpFloat64() / lambda
	}
	ns := sim.Time(gapSec * float64(sim.Second))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// arrive emits one packet for the service and schedules the next. This
// is the ingress hash point: the flow hash is computed here, exactly
// once, and every downstream consumer reads the cached copy.
func (g *Generator) arrive(st *svcState) {
	now := g.eng.Now()
	if now-st.start >= g.cfg.Duration {
		return // generation window over; do not reschedule
	}
	rec, ok := st.src.Trace.Next()
	if !ok {
		return // finite trace exhausted
	}
	g.nextID++
	h := crc.FlowHash(rec.Flow)
	seq := g.flowSeq.Ref(rec.Flow, h)
	p := g.cfg.Pool.Get()
	p.ID = g.nextID
	p.Flow = rec.Flow
	p.Service = st.src.Service
	p.Size = rec.Size
	p.Arrival = now
	p.FlowSeq = *seq
	p.Hash = h
	p.HashOK = true
	*seq++
	g.generated++
	g.perSvc[st.src.Service]++
	g.sink(p)
	g.eng.After(g.gap(st), st.emit)
}
