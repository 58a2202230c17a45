package trace

import (
	"fmt"
	"math/rand/v2"

	"laps/internal/packet"
)

// Record is one packet-header observation from a trace: the flow the
// packet belongs to and its frame size. Arrival timing is supplied by
// the traffic generator, matching the paper's methodology ("The header
// for each generated packet is taken from real network traces" while the
// rate is governed by the Holt-Winters model).
type Record struct {
	Flow packet.FlowKey
	Size int
}

// Source yields flow headers in arrival order. Sources must be
// deterministic for a fixed configuration.
type Source interface {
	// Next returns the next record. ok is false when the source is
	// exhausted; synthetic sources never exhaust.
	Next() (rec Record, ok bool)
	// Name identifies the trace for tables and logs.
	Name() string
}

// SizePoint is one component of a packet-size mixture.
type SizePoint struct {
	Bytes  int
	Weight float64
}

// DefaultSizes is a small-packet-dominated IMIX-style mixture. The
// paper's capacity analysis assumes predominantly small frames (its
// 100 Gbps ≈ 100 Mpps figure implies ~64-byte packets).
var DefaultSizes = []SizePoint{
	{Bytes: 64, Weight: 0.60},
	{Bytes: 576, Weight: 0.25},
	{Bytes: 1500, Weight: 0.15},
}

// SynthConfig parameterises a synthetic trace source.
type SynthConfig struct {
	// Name labels the trace (e.g. "caida-like-1").
	Name string
	// Flows is the size of the live flow population.
	Flows int
	// Skew is the Zipf exponent of the per-flow packet-rate distribution;
	// larger means a steeper elephant curve.
	Skew float64
	// Churn is the per-packet probability that one tail ("mouse") flow
	// ends and is replaced by a brand-new flow, modelling the constant
	// arrival of short connections.
	Churn float64
	// HotFlows is the size of the head that churn never touches (the
	// elephants). Zero defaults to 64.
	HotFlows int
	// Sizes is the frame-size mixture; nil uses DefaultSizes.
	Sizes []SizePoint
	// BurstMean, when > 1, emits tail-flow packets in trains of
	// geometric mean length BurstMean instead of i.i.d. samples —
	// matching real traces, where packets of a flow arrive in bursts.
	BurstMean float64
	// BurstConc is how many flow bursts are interleaved concurrently
	// (defaults to 128 when BurstMean > 1).
	BurstConc int
	// HotWeights, when non-empty, gives the elephants' relative rates
	// explicitly instead of Zipf(Skew) (two-class mode only; overrides
	// HotFlows with len(HotWeights)). Real backbone traces often have a
	// two-tier head — a few very large flows plus several medium ones —
	// which a single Zipf exponent cannot express.
	HotWeights []float64
	// HotShare, when > 0, switches the source to the two-class
	// elephant/mice model ("the war between mice and elephants", paper
	// refs [17],[37]): a fraction HotShare of packets comes from the
	// HotFlows always-on elephants (Zipf(Skew) weighted) and the rest
	// from an endless churn of short mice flows emitted as interleaved
	// bursts. The concurrency of those bursts (BurstConc) is what
	// stresses small annex caches in Fig 8a: a low-rank elephant must
	// survive the mice-insert storm between two of its own packets to
	// ever be promoted.
	HotShare float64
	// TrainsPerFlow is the mean number of packet trains a mouse flow
	// emits over its lifetime (two-class mode; default 1 = one train
	// then gone). Multi-train flows model real TCP sessions: the same
	// 5-tuple returns after a long pause.
	TrainsPerFlow float64
	// TrainGap is the mean number of *trace packets* between a mouse
	// flow's trains (default 8192). Gaps are long relative to annex
	// residency, so a mouse never accumulates hits across trains.
	TrainGap int
	// Seed drives all randomness in the source.
	Seed uint64
}

// Synthetic is a deterministic, endless trace source with Zipf-skewed
// flow sizes and churn in the tail.
type Synthetic struct {
	cfg      SynthConfig
	zipf     *Zipf
	rng      *rand.Rand
	keys     []packet.FlowKey // rank -> flow key
	sizeCDF  []float64
	sizes    []int
	keySeq   uint64 // counter for generating unique keys
	produced uint64
	hotCDF   []float64     // explicit elephant rate CDF (HotWeights)
	bursts   []burst       // active packet trains (BurstMean > 1)
	dormant  []dormantFlow // mouse flows sleeping between trains (FIFO from dormHead)
	dormHead int           // index of the queue's front in dormant
	curBurst int           // index of the train currently being served
	runLeft  int           // consecutive packets left in the current service run
}

// burst is one in-progress packet train.
type burst struct {
	key        packet.FlowKey
	left       int
	trainsLeft int // further trains this flow will emit after this one
}

// dormantFlow is a mouse flow between trains.
type dormantFlow struct {
	key        packet.FlowKey
	trainsLeft int
	wakeAt     uint64 // produced-count at which the next train may start
}

// NewSynthetic builds a synthetic source. Flows must be >= 1.
func NewSynthetic(cfg SynthConfig) *Synthetic {
	if cfg.Flows < 1 {
		panic("trace: synthetic source needs at least one flow")
	}
	if cfg.HotFlows == 0 {
		cfg.HotFlows = 64
	}
	if cfg.HotFlows > cfg.Flows {
		cfg.HotFlows = cfg.Flows
	}
	if cfg.Sizes == nil {
		cfg.Sizes = DefaultSizes
	}
	zipfN := cfg.Flows
	if cfg.HotShare > 0 {
		// Two-class mode: the Zipf distribution ranks the elephants only.
		if len(cfg.HotWeights) > 0 {
			cfg.HotFlows = len(cfg.HotWeights)
		}
		zipfN = cfg.HotFlows
		if cfg.BurstMean <= 1 {
			cfg.BurstMean = 8
		}
		if cfg.HotFlows > cfg.Flows {
			cfg.Flows = cfg.HotFlows
		}
	}
	s := &Synthetic{
		cfg:  cfg,
		zipf: NewZipf(cfg.Skew, zipfN),
		rng:  rand.New(rand.NewPCG(cfg.Seed, 0xD1B54A32D192ED03)),
		// Offset the key counter by the seed so distinct traces draw
		// from disjoint flow-key streams: two services must never share
		// a 5-tuple (the scheduler would see phantom flow migrations).
		keySeq: cfg.Seed << 24,
	}
	if len(cfg.HotWeights) > 0 {
		s.hotCDF = make([]float64, len(cfg.HotWeights))
		var sum float64
		for _, w := range cfg.HotWeights {
			if w <= 0 {
				panic("trace: hot weights must be positive")
			}
			sum += w
		}
		acc := 0.0
		for i, w := range cfg.HotWeights {
			acc += w / sum
			s.hotCDF[i] = acc
		}
		s.hotCDF[len(s.hotCDF)-1] = 1
	}
	s.keys = make([]packet.FlowKey, cfg.Flows)
	for i := range s.keys {
		s.keys[i] = s.freshKey()
	}
	var sum float64
	for _, p := range cfg.Sizes {
		sum += p.Weight
	}
	s.sizeCDF = make([]float64, len(cfg.Sizes))
	s.sizes = make([]int, len(cfg.Sizes))
	acc := 0.0
	for i, p := range cfg.Sizes {
		acc += p.Weight / sum
		s.sizeCDF[i] = acc
		s.sizes[i] = p.Bytes
	}
	s.sizeCDF[len(s.sizeCDF)-1] = 1
	return s
}

// freshKey derives a unique flow key from a counter via a splitmix64-style
// bijective mixer, so keys never collide yet look random to the hash.
func (s *Synthetic) freshKey() packet.FlowKey {
	s.keySeq++
	x := s.keySeq * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	// 64 mixed bits fill src/dst IP; ports from a second mix round.
	y := (x + 0x632BE59BD9B4E019) * 0xFF51AFD7ED558CCD
	proto := packet.ProtoTCP
	if y&0xF == 0 { // ~6% UDP
		proto = packet.ProtoUDP
	}
	return packet.FlowKey{
		SrcIP:   uint32(x >> 32),
		DstIP:   uint32(x),
		SrcPort: uint16(y >> 48),
		DstPort: uint16(y >> 32),
		Proto:   proto,
	}
}

// Name identifies the trace.
func (s *Synthetic) Name() string { return s.cfg.Name }

// Next emits one record. Synthetic sources never exhaust.
func (s *Synthetic) Next() (Record, bool) {
	// Tail churn: replace one non-hot flow with a brand-new key.
	if s.cfg.Churn > 0 && s.rng.Float64() < s.cfg.Churn && s.cfg.Flows > s.cfg.HotFlows {
		victim := s.cfg.HotFlows + int(s.rng.Int64N(int64(s.cfg.Flows-s.cfg.HotFlows)))
		s.keys[victim] = s.freshKey()
	}
	var flow packet.FlowKey
	switch {
	case s.cfg.HotShare > 0:
		if s.rng.Float64() < s.cfg.HotShare {
			flow = s.keys[s.hotRank()] // elephant
		} else {
			flow = s.nextMouseBurst() // mice churn
		}
	case s.cfg.BurstMean > 1:
		flow = s.nextBursty()
	default:
		flow = s.keys[s.zipf.Rank(s.rng)]
	}
	u := s.rng.Float64()
	size := s.sizes[len(s.sizes)-1]
	for i, c := range s.sizeCDF {
		if u <= c {
			size = s.sizes[i]
			break
		}
	}
	s.produced++
	return Record{Flow: flow, Size: size}, true
}

// hotRank samples an elephant rank from the explicit weights when given,
// else from the Zipf distribution.
func (s *Synthetic) hotRank() int {
	if s.hotCDF == nil {
		return s.zipf.Rank(s.rng)
	}
	u := s.rng.Float64()
	lo, hi := 0, len(s.hotCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.hotCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nextBursty serves one packet from the interleaved burst pool, topping
// the pool up with fresh Zipf-sampled trains as bursts finish. Every
// flow's packets arrive in geometric-length trains, so the expected
// per-flow share still follows the Zipf distribution.
func (s *Synthetic) nextBursty() packet.FlowKey {
	conc := s.cfg.BurstConc
	if conc < 1 {
		conc = 128
	}
	for len(s.bursts) < conc {
		length := 1 + int(s.rng.ExpFloat64()*(s.cfg.BurstMean-1))
		s.bursts = append(s.bursts, burst{key: s.keys[s.zipf.Rank(s.rng)], left: length})
	}
	i := int(s.rng.Int64N(int64(len(s.bursts))))
	b := &s.bursts[i]
	key := b.key
	b.left--
	if b.left == 0 {
		s.bursts[i] = s.bursts[len(s.bursts)-1]
		s.bursts = s.bursts[:len(s.bursts)-1]
	}
	return key
}

// nextMouseBurst serves the two-class model's mice. Trains are served
// with temporal locality — several consecutive packets of the same mouse
// at a time, as TCP windows produce in real traces — which is what lets
// mice entrench mid counts in small LFU annex caches. A flow may return
// for further trains (TrainsPerFlow) after a long dormancy (TrainGap),
// so mice have realistic total lifetimes without ever looking like
// elephants to the detector.
func (s *Synthetic) nextMouseBurst() packet.FlowKey {
	conc := s.cfg.BurstConc
	if conc < 1 {
		conc = 128
	}
	for len(s.bursts) < conc {
		s.bursts = append(s.bursts, s.newTrain())
	}
	if s.runLeft <= 0 || s.curBurst >= len(s.bursts) {
		s.curBurst = int(s.rng.Int64N(int64(len(s.bursts))))
		s.runLeft = 1 + int(s.rng.ExpFloat64()*3)
	}
	b := &s.bursts[s.curBurst]
	key := b.key
	b.left--
	s.runLeft--
	if b.left == 0 {
		done := *b
		s.bursts[s.curBurst] = s.bursts[len(s.bursts)-1]
		s.bursts = s.bursts[:len(s.bursts)-1]
		s.runLeft = 0
		if done.trainsLeft > 0 {
			gap := s.cfg.TrainGap
			if gap <= 0 {
				gap = 8192
			}
			s.pushDormant(dormantFlow{
				key:        done.key,
				trainsLeft: done.trainsLeft,
				wakeAt:     s.produced + uint64(1+s.rng.ExpFloat64()*float64(gap)),
			})
		}
	}
	return key
}

// pushDormant appends to the dormant queue. Popping only advances
// dormHead, so before the backing array would grow the popped prefix is
// reclaimed by sliding the queue down — once at least half the array is
// prefix, which keeps the copy amortised O(1) per push and the capacity
// within a constant factor of the most flows ever dormant at once.
func (s *Synthetic) pushDormant(d dormantFlow) {
	if len(s.dormant) == cap(s.dormant) && s.dormHead >= len(s.dormant)/2 {
		n := copy(s.dormant, s.dormant[s.dormHead:])
		s.dormant = s.dormant[:n]
		s.dormHead = 0
	}
	s.dormant = append(s.dormant, d)
}

// newTrain starts a packet train: a returning dormant flow whose gap has
// elapsed, or a brand-new mouse.
func (s *Synthetic) newTrain() burst {
	length := 1 + int(s.rng.ExpFloat64()*(s.cfg.BurstMean-1))
	if s.dormHead < len(s.dormant) && s.dormant[s.dormHead].wakeAt <= s.produced {
		d := s.dormant[s.dormHead]
		s.dormHead++
		return burst{key: d.key, left: length, trainsLeft: d.trainsLeft - 1}
	}
	trains := 0
	if s.cfg.TrainsPerFlow > 1 {
		trains = int(s.rng.ExpFloat64() * (s.cfg.TrainsPerFlow - 1))
	}
	return burst{key: s.freshKey(), left: length, trainsLeft: trains}
}

// CAIDALike returns a preset imitating the paper's CAIDA equinix-sanjose
// OC-192 traces: 24 backbone elephants over an enormous, highly
// concurrent churn of mice trains. The paper observes these need a
// bigger annex cache to resolve the top flows ("Caida traces have much
// more active flows"); with this preset a 16-entry AFC resolves 13-14 of
// the true top 16 at a 512-entry annex and ~15 at 1024, matching Fig 8a.
func CAIDALike(i int) *Synthetic {
	w := make([]float64, 0, 24)
	for j := 0; j < 8; j++ {
		w = append(w, 1.0) // backbone heavy hitters, ~1% of packets each
	}
	for j := 0; j < 16; j++ {
		w = append(w, 0.12) // medium elephants, rare enough to stress the annex
	}
	return NewSynthetic(SynthConfig{
		Name:          fmt.Sprintf("caida-like-%d", i),
		Flows:         120000,
		Skew:          1,
		HotWeights:    w,
		HotShare:      0.099,
		BurstMean:     12,
		BurstConc:     2400,
		TrainsPerFlow: 16,
		TrainGap:      8000,
		Seed:          0xCA1DA + uint64(i)*7919,
	})
}

// AucklandLike returns a preset imitating the Auckland-II university
// uplink traces: a steep head of 16 campus elephants over a moderate
// mice churn. The paper finds these fully resolvable with a 512-entry
// annex ("AFC can identify all top 16 flows with 100% accuracy"), which
// this preset reproduces.
func AucklandLike(i int) *Synthetic {
	w := make([]float64, 0, 16)
	for j := 0; j < 8; j++ {
		w = append(w, 1.1) // campus heavy hitters
	}
	for j := 0; j < 8; j++ {
		w = append(w, 0.3) // medium elephants
	}
	return NewSynthetic(SynthConfig{
		Name:          fmt.Sprintf("auck-like-%d", i),
		Flows:         15000,
		Skew:          1,
		HotWeights:    w,
		HotShare:      0.112,
		BurstMean:     10,
		BurstConc:     400,
		TrainsPerFlow: 16,
		TrainGap:      4000,
		Seed:          0xA0C2 + uint64(i)*104729,
	})
}

// Replay is a Source over an in-memory record slice, optionally looping.
type Replay struct {
	name    string
	records []Record
	pos     int
	loop    bool
}

// NewReplay wraps records as a Source. If loop is true the source
// restarts from the beginning instead of exhausting.
func NewReplay(name string, records []Record, loop bool) *Replay {
	return &Replay{name: name, records: records, loop: loop}
}

// Name identifies the trace.
func (r *Replay) Name() string { return r.name }

// Next yields the next record, looping if configured.
func (r *Replay) Next() (Record, bool) {
	if r.pos >= len(r.records) {
		if !r.loop || len(r.records) == 0 {
			return Record{}, false
		}
		r.pos = 0
	}
	rec := r.records[r.pos]
	r.pos++
	return rec, true
}
