package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"laps/internal/packet"
	"laps/internal/trace"
)

// Churn is the million-flow scenario family: an endless trace of short
// flows with a bounded concurrent population and unbounded distinct
// flow count. Where Synthetic models a mostly-stable population with
// tail churn (the heavy-hitter detection scenarios), Churn models the
// opposite regime — the flow *arrival* rate is the story, and any
// per-flow state the stack keeps is ground the scenario will bury. It
// exists to exercise StackConfig.FlowBudget: a run over a Churn source
// visits orders of magnitude more distinct flows than it ever has live
// at once, so exact per-flow tracking grows without bound while budgeted
// tracking stays flat (docs/SCALE.md).
//
// Memory note: the source itself keeps O(Concurrent) state — one slot
// per live flow, fresh keys drawn from a counter — so a 10^7-flow run
// costs the generator a few thousand slots, never 10^7 entries.
type Churn struct {
	cfg     ChurnConfig
	rng     *rand.Rand
	slots   []churnSlot
	keySeq  uint64
	started uint64
	sizeCDF []float64
	sizes   []int
}

// churnSlot is one live flow: its identity, remaining packets, and the
// next per-flow sequence number.
type churnSlot struct {
	key  packet.FlowKey
	left int
	seq  uint64
}

// LifetimeDist selects how flow lifetimes (in packets) are drawn.
type LifetimeDist uint8

const (
	// LifetimeGeometric draws 1 + Exp(mean-1): many 1-3 packet flows,
	// an exponential tail. The default, and the classic short-flow
	// model (most web-era flows are a handful of packets).
	LifetimeGeometric LifetimeDist = iota
	// LifetimePareto draws a heavy-tailed lifetime (shape ParetoAlpha):
	// mice dominate by count but a few flows live orders of magnitude
	// longer, so the live population always contains some old flows.
	LifetimePareto
	// LifetimeFixed gives every flow exactly MeanPackets packets —
	// deterministic turnover, useful for exact-count tests.
	LifetimeFixed
)

// ChurnConfig parameterises a Churn source.
type ChurnConfig struct {
	// Name labels the trace.
	Name string
	// Concurrent is the live flow population (slots); 0 means 4096.
	// Each emitted packet belongs to one of the Concurrent live flows;
	// a flow that exhausts its lifetime is replaced by a brand-new one.
	Concurrent int
	// MeanPackets is the mean flow lifetime in packets; 0 means 8.
	MeanPackets float64
	// Lifetime selects the lifetime distribution (default geometric).
	Lifetime LifetimeDist
	// ParetoAlpha is the Pareto shape for LifetimePareto; values in
	// (1, 2] give a finite mean with a heavy tail. 0 means 1.5.
	ParetoAlpha float64
	// MaxPackets caps a single flow's lifetime (heavy tails can
	// otherwise produce effectively immortal flows); 0 means 1<<20.
	MaxPackets int
	// Sizes is the frame-size mixture; nil uses trace.DefaultSizes.
	Sizes []trace.SizePoint
	// Seed drives all randomness.
	Seed uint64
}

// NewChurn builds a churn source.
func NewChurn(cfg ChurnConfig) *Churn {
	if cfg.Concurrent <= 0 {
		cfg.Concurrent = 4096
	}
	if cfg.MeanPackets <= 0 {
		cfg.MeanPackets = 8
	}
	if cfg.ParetoAlpha <= 0 {
		cfg.ParetoAlpha = 1.5
	}
	if cfg.MaxPackets <= 0 {
		cfg.MaxPackets = 1 << 20
	}
	if cfg.Sizes == nil {
		cfg.Sizes = trace.DefaultSizes
	}
	c := &Churn{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15)),
		// Same disjoint-key-stream trick as trace.Synthetic: offset the
		// counter by the seed so two sources never share a 5-tuple.
		keySeq: cfg.Seed << 24,
	}
	var sum float64
	for _, p := range cfg.Sizes {
		sum += p.Weight
	}
	c.sizeCDF = make([]float64, len(cfg.Sizes))
	c.sizes = make([]int, len(cfg.Sizes))
	acc := 0.0
	for i, p := range cfg.Sizes {
		acc += p.Weight / sum
		c.sizeCDF[i] = acc
		c.sizes[i] = p.Bytes
	}
	c.sizeCDF[len(c.sizeCDF)-1] = 1
	c.slots = make([]churnSlot, cfg.Concurrent)
	for i := range c.slots {
		c.slots[i] = c.freshFlow()
	}
	return c
}

// freshFlow starts a new flow: a unique key and a sampled lifetime.
func (c *Churn) freshFlow() churnSlot {
	c.keySeq++
	c.started++
	x := c.keySeq * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	y := (x + 0x632BE59BD9B4E019) * 0xFF51AFD7ED558CCD
	proto := packet.ProtoTCP
	if y&0xF == 0 {
		proto = packet.ProtoUDP
	}
	return churnSlot{
		key: packet.FlowKey{
			SrcIP:   uint32(x >> 32),
			DstIP:   uint32(x),
			SrcPort: uint16(y >> 48),
			DstPort: uint16(y >> 32),
			Proto:   proto,
		},
		left: c.lifetime(),
	}
}

// lifetime samples one flow's packet count from the configured
// distribution.
func (c *Churn) lifetime() int {
	mean := c.cfg.MeanPackets
	var n int
	switch c.cfg.Lifetime {
	case LifetimeFixed:
		n = int(mean)
	case LifetimePareto:
		// Pareto(xm, alpha) has mean alpha*xm/(alpha-1); solve xm for
		// the requested mean, then invert the CDF.
		alpha := c.cfg.ParetoAlpha
		xm := mean
		if alpha > 1 {
			xm = mean * (alpha - 1) / alpha
		}
		u := c.rng.Float64()
		for u == 0 {
			u = c.rng.Float64()
		}
		n = int(xm * math.Pow(1/u, 1/alpha))
	default: // LifetimeGeometric
		n = 1 + int(c.rng.ExpFloat64()*(mean-1))
	}
	if n < 1 {
		n = 1
	}
	if n > c.cfg.MaxPackets {
		n = c.cfg.MaxPackets
	}
	return n
}

// Name identifies the trace.
func (c *Churn) Name() string { return c.cfg.Name }

// Next emits one record; churn sources never exhaust. The packet comes
// from a uniformly chosen live flow; a flow that finishes is replaced
// in place by a fresh one, keeping the live population constant.
func (c *Churn) Next() (trace.Record, bool) {
	rec, _, ok := c.NextSeq()
	return rec, ok
}

// NextSeq is Next plus the emitted packet's per-flow sequence number —
// what a sender stamping FlowSeq needs. Exposing it here keeps scale
// harnesses at O(Concurrent) memory; tracking sequences outside the
// source would need a map over every distinct flow, the exact cost the
// churn scenario exists to expose.
func (c *Churn) NextSeq() (trace.Record, uint64, bool) {
	i := int(c.rng.Int64N(int64(len(c.slots))))
	s := &c.slots[i]
	key := s.key
	seq := s.seq
	s.seq++
	s.left--
	if s.left <= 0 {
		*s = c.freshFlow()
	}
	u := c.rng.Float64()
	size := c.sizes[len(c.sizes)-1]
	for j, cdf := range c.sizeCDF {
		if u <= cdf {
			size = c.sizes[j]
			break
		}
	}
	return trace.Record{Flow: key, Size: size}, seq, true
}

// MillionFlowChurn is the scale preset of docs/SCALE.md: a large
// live population of Pareto-lifetime flows, so a multi-million-packet
// run visits millions of distinct flows while a heavy tail keeps some
// flows alive long enough to migrate. Exact per-flow state under this
// source grows with the distinct-flow count; budgeted state must not.
func MillionFlowChurn(i int) *Churn {
	return NewChurn(ChurnConfig{
		Name:        fmt.Sprintf("million-flow-churn-%d", i),
		Concurrent:  1 << 16,
		MeanPackets: 6,
		Lifetime:    LifetimePareto,
		ParetoAlpha: 1.3,
		Seed:        0x5CA1E + uint64(i)*104729,
	})
}
