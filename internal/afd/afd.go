// Package afd implements the paper's Aggressive Flow Detector (§III-F):
// a two-level caching structure that identifies the top heavy-hitter
// ("aggressive") flows without keeping per-flow statistics.
//
// The structure has two fully-associative LFU caches:
//
//   - the Aggressive Flow Cache (AFC), very small (16 entries), whose
//     residents are *by definition* the currently-aggressive flows; and
//   - the annex cache, a larger qualifying station. "All entries into AFC
//     come via annex cache. Items referenced only rarely will be filtered
//     out by annex cache and will never enter AFC."
//
// On each observed packet the flow ID is looked up in both levels. An AFC
// hit just bumps the hit counter. An annex hit increments the flow's
// counter; once it exceeds the promotion threshold the flow is promoted
// into the AFC and the AFC's LFU victim is demoted back into the annex
// (the annex doubles as a victim cache, providing "some inertia before a
// flow is excluded from the AFD"). A miss in both installs the flow in
// the annex, evicting the annex's LFU victim.
//
// Packet sampling (Fig 8c) is supported: with probability p each packet
// is observed, otherwise ignored. Sampling preferentially passes large
// flows and cuts the AFD's power/access cost.
package afd

import (
	"fmt"
	"math/rand/v2"

	"laps/internal/cache"
	"laps/internal/crc"
	"laps/internal/obs"
	"laps/internal/packet"
)

// Policy selects the replacement policy for both cache levels.
// The paper uses LFU; LRU exists for the ablation study.
type Policy int

// Replacement policies.
const (
	LFU Policy = iota
	LRU
)

// String names the policy ("lfu" or "lru").
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return "lfu"
}

// Config parameterises a Detector.
type Config struct {
	// AFCSize is the Aggressive Flow Cache capacity. The paper fixes it
	// at 16: "Since our AFC size is fixed, we can only detect up to
	// maximum of 16 top aggressive flows."
	AFCSize int
	// AnnexSize is the annex cache capacity, swept 64..2048 in Fig 8a.
	AnnexSize int
	// PromoteThreshold is the annex hit count a flow must exceed to be
	// promoted into the AFC.
	PromoteThreshold uint64
	// SampleProb is the probability that a packet is observed; 1 means
	// every packet accesses the AFD (Fig 8c sweeps 1 .. 1/10000).
	SampleProb float64
	// RequalifyHits is how many further annex hits an invalidated
	// (just-migrated) flow needs before it can re-enter the AFC and be
	// migrated again. It rate-limits per-flow re-migration under
	// sustained overload; 0 means 40.
	RequalifyHits uint64
	// Seed drives the sampling RNG so runs are reproducible.
	Seed uint64
	// Policy selects LFU (paper) or LRU (ablation).
	Policy Policy
}

// DefaultConfig mirrors the paper's baseline design point: a 16-entry
// AFC fed by a 512-entry annex, observing every packet. The promotion
// threshold (not specified by the paper) defaults to 48 references —
// comfortably above typical mice packet-train lengths, so bursts cannot
// transit into the AFC (see the threshold ablation).
func DefaultConfig() Config {
	return Config{
		AFCSize:          16,
		AnnexSize:        512,
		PromoteThreshold: 48,
		SampleProb:       1,
		Seed:             1,
	}
}

// Stats counts Detector activity.
type Stats struct {
	Observed    uint64 // packets offered to the detector
	Sampled     uint64 // packets that actually accessed the caches
	AFCHits     uint64
	AnnexHits   uint64
	Misses      uint64 // missed both levels
	Promotions  uint64 // annex -> AFC
	Demotions   uint64 // AFC victim -> annex
	Invalidated uint64 // explicit invalidations (after migration)
}

// Detector is the Aggressive Flow Detector.
type Detector struct {
	cfg   Config
	afc   cache.Cache
	annex cache.Cache
	rng   *rand.Rand
	stats Stats
	rec   *obs.Recorder // nil = no telemetry
	svc   int16         // service ID stamped on emitted events
}

// New builds a Detector from cfg, applying defaults for zero fields.
func New(cfg Config) *Detector {
	def := DefaultConfig()
	if cfg.AFCSize == 0 {
		cfg.AFCSize = def.AFCSize
	}
	if cfg.AnnexSize == 0 {
		cfg.AnnexSize = def.AnnexSize
	}
	if cfg.PromoteThreshold == 0 {
		cfg.PromoteThreshold = def.PromoteThreshold
	}
	if cfg.SampleProb == 0 {
		cfg.SampleProb = 1
	}
	if cfg.RequalifyHits == 0 {
		cfg.RequalifyHits = 40
	}
	if cfg.SampleProb < 0 || cfg.SampleProb > 1 {
		panic(fmt.Sprintf("afd: sample probability %v outside (0,1]", cfg.SampleProb))
	}
	mk := func(n int) cache.Cache {
		if cfg.Policy == LRU {
			return cache.NewLRU(n)
		}
		return cache.NewLFU(n)
	}
	return &Detector{
		cfg:   cfg,
		afc:   mk(cfg.AFCSize),
		annex: mk(cfg.AnnexSize),
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15)),
		svc:   -1,
	}
}

// SetRecorder attaches a telemetry recorder; promotion, demotion and
// invalidation events are stamped with the given service ID. A nil
// recorder detaches telemetry.
func (d *Detector) SetRecorder(r *obs.Recorder, service int16) {
	d.rec = r
	d.svc = service
}

// Stats returns a snapshot of the activity counters.
func (d *Detector) Stats() Stats { return d.stats }

// Observe offers one packet's flow ID to the detector. This is the
// training path; it runs in the background off the scheduler's critical
// path (§III-G). The flow hash is computed here only when the packet is
// actually sampled; callers holding a packet with a primed hash should
// use ObserveH instead.
func (d *Detector) Observe(f packet.FlowKey) {
	d.stats.Observed++
	if d.cfg.SampleProb < 1 && d.rng.Float64() >= d.cfg.SampleProb {
		return
	}
	d.observe(f, crc.FlowHash(f))
}

// ObserveH is Observe for callers that already hold f's flow hash
// (the scheduler hot path, where it is cached on the packet).
func (d *Detector) ObserveH(f packet.FlowKey, h uint16) {
	d.stats.Observed++
	if d.cfg.SampleProb < 1 && d.rng.Float64() >= d.cfg.SampleProb {
		return
	}
	d.observe(f, h)
}

// ObserveBatchH offers n back-to-back references to one flow, exactly
// equivalent to calling ObserveH(f, h) n times: the sampler draws n
// times, the caches advance by the sampled count in one TouchN each,
// and the promotion (if the annex count crosses the threshold mid-run)
// happens at the same reference it would under per-packet observation.
// Statistics, eviction state and rng consumption all match the
// per-packet path bit for bit — this is what lets the burst dispatch
// path batch AFD training without changing detector behaviour.
func (d *Detector) ObserveBatchH(f packet.FlowKey, h uint16, n int) {
	if n <= 0 {
		return
	}
	d.stats.Observed += uint64(n)
	if d.cfg.SampleProb < 1 {
		k := 0
		for i := 0; i < n; i++ {
			if d.rng.Float64() < d.cfg.SampleProb {
				k++
			}
		}
		if k == 0 {
			return
		}
		n = k
	}
	d.observeN(f, h, uint64(n))
}

// observeN is observe for n sampled references of one flow. Each cache
// level is probed once per observation (Find), with the count read,
// touches and promotion removal all going through the handle — the
// per-key work here runs once per flow run in a burst, but the annex
// items table is large enough that redundant probes of it were the
// single biggest dispatcher cost.
func (d *Detector) observeN(f packet.FlowKey, h uint16, n uint64) {
	d.stats.Sampled += n
	if hd, ok := d.afc.Find(f, h); ok {
		d.afc.TouchHandle(hd, n)
		d.stats.AFCHits += n
		return
	}
	hd, resident := d.annex.Find(f, h)
	var c uint64
	if resident {
		c = hd.Count()
	} else {
		// The first reference misses and installs the flow in the annex,
		// exactly like observe; the rest of the run hits it there.
		d.stats.Misses++
		d.annex.Insert(f, h, 1)
		n--
		c = 1
		if n == 0 {
			return
		}
		hd, _ = d.annex.Find(f, h)
	}
	// References hit the annex until the count first exceeds the
	// promotion threshold; that reference promotes, and the remainder of
	// the run hits the AFC.
	var toPromote uint64
	if c+n > d.cfg.PromoteThreshold {
		if c > d.cfg.PromoteThreshold {
			toPromote = 1
		} else {
			toPromote = d.cfg.PromoteThreshold - c + 1
		}
	}
	if toPromote == 0 || toPromote > n {
		d.annex.TouchHandle(hd, n)
		d.stats.AnnexHits += n
		return
	}
	count := d.annex.TouchHandle(hd, toPromote)
	d.stats.AnnexHits += toPromote
	d.promote(hd, f, h, count)
	if rest := n - toPromote; rest > 0 {
		d.afc.TouchN(f, h, rest)
		d.stats.AFCHits += rest
	}
}

func (d *Detector) observe(f packet.FlowKey, h uint16) {
	d.stats.Sampled++
	if _, ok := d.afc.Touch(f, h); ok {
		d.stats.AFCHits++
		return
	}
	if hd, ok := d.annex.Find(f, h); ok {
		n := d.annex.TouchHandle(hd, 1)
		d.stats.AnnexHits++
		if n > d.cfg.PromoteThreshold {
			d.promote(hd, f, h, n)
		}
		return
	}
	d.stats.Misses++
	d.annex.Insert(f, h, 1)
}

// promote moves f (with count n, located in the annex by handle hd)
// into the AFC, demoting the AFC's victim back into the annex in its
// place.
func (d *Detector) promote(hd cache.Handle, f packet.FlowKey, h uint16, n uint64) {
	d.annex.RemoveHandle(hd)
	victim, evicted := d.afc.Insert(f, h, n)
	d.stats.Promotions++
	if d.rec != nil {
		d.rec.Emit(obs.Event{Kind: obs.EvAFCPromote, Service: d.svc,
			Core: -1, Core2: -1, Flow: f, Val: int64(n)})
		if evicted {
			d.rec.Emit(obs.Event{Kind: obs.EvAFCDemote, Service: d.svc,
				Core: -1, Core2: -1, Flow: victim.Key, Val: int64(victim.Count)})
		}
	}
	if evicted {
		// True victim-cache semantics: the demoted flow keeps its full
		// reference count in the annex, so one more hit re-qualifies it
		// (the paper's "inertia before a flow is excluded from the
		// AFD") and, on return, it re-enters the AFC *above* any stale
		// lower-count residents instead of below them.
		d.annex.Insert(victim.Key, victim.Hash, victim.Count)
		d.stats.Demotions++
	}
}

// IsAggressive reports whether f currently resides in the AFC. This is
// the check the scheduler performs under load imbalance (Listing 1,
// "hit = AFC.access(flowID)").
func (d *Detector) IsAggressive(f packet.FlowKey) bool {
	return d.IsAggressiveH(f, crc.FlowHash(f))
}

// IsAggressiveH is IsAggressive with the caller-supplied flow hash.
func (d *Detector) IsAggressiveH(f packet.FlowKey, h uint16) bool {
	_, ok := d.afc.Count(f, h)
	return ok
}

// InvalidateH removes f, whose flow hash is h, from the AFC (Listing 1:
// after a flow has been migrated it is invalidated so it is not migrated
// again immediately). Like any AFC departure, the flow is demoted into
// the annex with its count preserved, so a still-aggressive flow
// re-qualifies on its next hit — and can be migrated again if its *new*
// core later saturates. This keeps the load-balancing loop live under
// sustained overload while still preventing back-to-back re-migration.
func (d *Detector) InvalidateH(f packet.FlowKey, h uint16) bool {
	if _, ok := d.afc.Count(f, h); !ok {
		return false
	}
	d.afc.Remove(f, h)
	requalAt := uint64(1)
	if d.cfg.PromoteThreshold+1 > d.cfg.RequalifyHits {
		requalAt = d.cfg.PromoteThreshold + 1 - d.cfg.RequalifyHits
	}
	d.annex.Insert(f, h, requalAt)
	d.stats.Invalidated++
	if d.rec != nil {
		d.rec.Emit(obs.Event{Kind: obs.EvAFCInvalidate, Service: d.svc,
			Core: -1, Core2: -1, Flow: f})
	}
	return true
}

// HitRateProbe returns a sampler probe reporting the detector's AFC hit
// rate (AFC hits per observed packet) over each sampling interval.
func (d *Detector) HitRateProbe(name string) obs.Probe {
	return obs.RateProbe(name,
		func() uint64 { return d.stats.AFCHits },
		func() uint64 { return d.stats.Observed })
}

// Aggressive returns the flows currently held in the AFC, hottest last
// (the first element is the AFC's own next victim).
func (d *Detector) Aggressive() []packet.FlowKey {
	return d.afc.Keys()
}

// AFCLen reports current AFC occupancy.
func (d *Detector) AFCLen() int { return d.afc.Len() }

// Reset clears both cache levels and the statistics.
func (d *Detector) Reset() {
	d.afc.Reset()
	d.annex.Reset()
	d.stats = Stats{}
}
