// Package core implements LAPS, the Locality Aware Packet Scheduler —
// the paper's primary contribution (§III). LAPS combines:
//
//   - per-service map tables: cores are partitioned among services so a
//     core's I-cache only ever holds one program (§III-B);
//   - incremental (linear) hashing per service, so growing or shrinking
//     a service's core allocation disturbs at most one hash bucket
//     (§III-C/D);
//   - a migration table that overrides the hash for flows that have been
//     explicitly moved (§III-A);
//   - an Aggressive Flow Detector per service: under load imbalance only
//     flows that hit in the AFC are migrated to the least-loaded core of
//     the same service (Listing 1);
//   - dynamic core allocation: cores idle past a threshold are marked
//     surplus, and an overloaded service steals the longest-marked
//     surplus core from a donor service (§III-C/D/E).
package core

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/crc"
	"laps/internal/lhash"
	"laps/internal/migtable"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// Config parameterises a LAPS scheduler.
type Config struct {
	// TotalCores is the processor's core count (paper: 16).
	TotalCores int
	// Services is how many services share the processor (paper: 4).
	// Packets must carry Service IDs < Services.
	Services int
	// InitialShares optionally sets how many cores each service starts
	// with (len == Services, every entry >= 1, sum == TotalCores).
	// Empty means an equal split, the paper's initialisation ("At
	// initialization, cores are equally divided among services").
	InitialShares []int
	// HighThresh is the queue occupancy that signals overload;
	// 0 means 3/4 of the queue capacity.
	HighThresh int
	// IdleThresh is how long a core's queue must stay empty before the
	// core is marked surplus (§III-D's idle_th); 0 means 100 µs.
	IdleThresh sim.Time
	// ScanInterval is how often the surplus scan runs; 0 means 20 µs.
	ScanInterval sim.Time
	// MigTableCap bounds each service's migration table; 0 means 1024.
	MigTableCap int
	// InstantLoadSignal makes migration-target selection use raw
	// instantaneous queue lengths (as AFS does) instead of the default
	// EWMA-smoothed per-core load. Smoothing makes a single migration
	// durable: the chosen core is genuinely under-loaded, not just
	// momentarily empty. Kept as an ablation knob (DESIGN.md §5).
	InstantLoadSignal bool
	// AFD configures each service's Aggressive Flow Detector. Zero
	// fields take afd.DefaultConfig values.
	AFD afd.Config
}

// Stats counts LAPS control-plane activity.
type Stats struct {
	Migrations     uint64 // aggressive-flow migration decisions
	CoreRequests   uint64 // request_core() invocations
	CoreGrants     uint64 // requests satisfied from the surplus list
	CoreDenied     uint64 // requests with no surplus core available
	SurplusMarks   uint64
	SurplusUnmarks uint64
}

// serviceState is one service's slice of the scheduler: its map table
// (bucket list + incremental hash), migration table and AFD.
type serviceState struct {
	id    packet.ServiceID
	cores []int // bucket index -> core ID
	lh    *lhash.Table
	mig   *migtable.Table
	det   *afd.Detector
}

// surplusEntry records a core marked extra and when it was marked.
type surplusEntry struct {
	core  int
	since sim.Time
}

// LAPS is the Locality Aware Packet Scheduler.
type LAPS struct {
	cfg      Config
	svc      []*serviceState
	owner    []int // core ID -> index into svc
	surplus  []surplusEntry
	ewma     []float64 // per-core smoothed queue length
	lastScan sim.Time
	stats    Stats
	gen      uint64        // map-table mutation counter (see Generation)
	rec      *obs.Recorder // nil = no telemetry
}

// SetRecorder attaches a telemetry recorder to the scheduler and to
// every service's AFD. Control-plane transitions — flow migrations,
// map-table splits/merges, core steals, surplus marking — are
// emitted as typed events. A nil recorder detaches telemetry; the hot
// path then costs a single branch.
func (l *LAPS) SetRecorder(r *obs.Recorder) {
	l.rec = r
	for i, st := range l.svc {
		st.det.SetRecorder(r, int16(i))
	}
}

// minQueue returns the service's least-loaded core under the configured
// load signal (EWMA by default, instantaneous under the ablation flag).
func (l *LAPS) minQueue(st *serviceState, v npsim.View) int {
	if l.cfg.InstantLoadSignal {
		best, bestLen := st.cores[0], v.QueueLen(st.cores[0])
		for _, c := range st.cores[1:] {
			if q := v.QueueLen(c); q < bestLen {
				best, bestLen = c, q
			}
		}
		return best
	}
	best := st.cores[0]
	bestLoad := l.ewma[best] + 0.01*float64(v.QueueLen(best))
	for _, c := range st.cores[1:] {
		load := l.ewma[c] + 0.01*float64(v.QueueLen(c))
		if load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best
}

// New builds a LAPS scheduler. Cores are divided equally among services
// at initialisation (§III-C); TotalCores must be >= Services.
func New(cfg Config) *LAPS {
	if cfg.Services < 1 {
		panic("core: LAPS needs at least one service")
	}
	if cfg.TotalCores < cfg.Services {
		panic(fmt.Sprintf("core: %d cores cannot host %d services", cfg.TotalCores, cfg.Services))
	}
	if cfg.IdleThresh == 0 {
		cfg.IdleThresh = 100 * sim.Microsecond
	}
	if cfg.ScanInterval == 0 {
		cfg.ScanInterval = 20 * sim.Microsecond
	}
	if cfg.MigTableCap == 0 {
		cfg.MigTableCap = 1024
	}
	l := &LAPS{
		cfg:      cfg,
		owner:    make([]int, cfg.TotalCores),
		ewma:     make([]float64, cfg.TotalCores),
		lastScan: -1,
	}
	shares := cfg.InitialShares
	if len(shares) == 0 {
		shares = make([]int, cfg.Services)
		per := cfg.TotalCores / cfg.Services
		extra := cfg.TotalCores % cfg.Services
		for i := range shares {
			shares[i] = per
			if i < extra {
				shares[i]++
			}
		}
	} else {
		if len(shares) != cfg.Services {
			panic(fmt.Sprintf("core: %d initial shares for %d services", len(shares), cfg.Services))
		}
		sum := 0
		for i, n := range shares {
			if n < 1 {
				panic(fmt.Sprintf("core: service %d starts with %d cores; every service needs >= 1", i, n))
			}
			sum += n
		}
		if sum != cfg.TotalCores {
			panic(fmt.Sprintf("core: initial shares sum to %d, want %d", sum, cfg.TotalCores))
		}
	}
	next := 0
	for i := 0; i < cfg.Services; i++ {
		n := shares[i]
		st := &serviceState{id: packet.ServiceID(i)}
		for j := 0; j < n; j++ {
			st.cores = append(st.cores, next)
			l.owner[next] = i
			next++
		}
		st.lh = lhash.New(len(st.cores))
		st.mig = migtable.New(cfg.MigTableCap)
		afdCfg := cfg.AFD
		afdCfg.Seed = cfg.AFD.Seed + uint64(i)*0x9E37
		st.det = afd.New(afdCfg)
		l.svc = append(l.svc, st)
	}
	return l
}

// Name identifies the scheduler.
func (l *LAPS) Name() string { return "laps" }

// Stats returns a snapshot of control-plane counters.
func (l *LAPS) Stats() Stats { return l.stats }

// CoresOf returns a copy of the bucket list (core IDs) currently
// allocated to service s.
func (l *LAPS) CoresOf(s packet.ServiceID) []int {
	return append([]int(nil), l.svc[s].cores...)
}

// SurplusCount reports how many cores are currently marked surplus.
func (l *LAPS) SurplusCount() int { return len(l.surplus) }

// Detector exposes service s's AFD (for accuracy evaluation).
func (l *LAPS) Detector(s packet.ServiceID) *afd.Detector { return l.svc[s].det }

// Target implements npsim.Scheduler; it is the Listing 1 fast path plus
// the per-service map-table lookup of §III-E.
func (l *LAPS) Target(p *packet.Packet, v npsim.View) int {
	return l.TargetN(p, 1, v)
}

// TargetN implements npsim.BurstScheduler: one decision for a run of n
// back-to-back packets of p's flow. The AFD observes all n references
// in one batched (but per-packet-equivalent) update, and the scan /
// imbalance machinery runs once per run instead of once per packet.
func (l *LAPS) TargetN(p *packet.Packet, n int, v npsim.View) int {
	if int(p.Service) >= len(l.svc) {
		panic(fmt.Sprintf("core: packet for unconfigured service %d", p.Service))
	}
	// One clock read and one hash per decision: the hash is normally a
	// cached-field read (primed at ingress), and every lookup below —
	// AFD, migration table, map table — reuses the same two values.
	now := v.Now()
	h := crc.PacketHash(p)
	l.maybeScan(v, now)
	st := l.svc[p.Service]

	// Background training of the AFD (off the critical path in hardware).
	st.det.ObserveBatchH(p.Flow, h, n)

	// 1) Migration table has priority over the map table.
	target, migrated := st.mig.GetH(p.Flow, h)
	if !migrated {
		// 2) Map table lookup via incremental hash.
		target = st.cores[st.lh.Index(uint32(h))]
	}

	// 3) Load-imbalance handling (Listing 1).
	high := l.highThresh(v)
	if v.QueueLen(target) >= high {
		minc := l.minQueue(st, v)
		if v.QueueLen(minc) < high {
			if minc != target && st.det.IsAggressiveH(p.Flow, h) {
				st.mig.PutH(p.Flow, h, minc)
				st.det.InvalidateH(p.Flow, h)
				l.stats.Migrations++
				if l.rec != nil {
					l.rec.Emit(obs.Event{Kind: obs.EvFlowMigration, Service: int16(p.Service),
						Core: int32(minc), Core2: int32(target), Flow: p.Flow,
						Val: int64(v.QueueLen(minc))})
				}
				// Placement feedback: account for the incoming flow's
				// load immediately so the next migration does not herd
				// onto the same momentarily-cold core before the
				// smoothed signal catches up.
				l.ewma[minc] += float64(high) / 2
				target = minc
			}
		} else {
			// 4) Every core of this service is overloaded: ask the
			// surplus pool.
			if l.requestCore(int(p.Service), v) {
				// Re-resolve through the grown map table; flows of the
				// split bucket (including possibly this one) now land on
				// the empty stolen core.
				if c, ok := st.mig.GetH(p.Flow, h); ok {
					target = c
				} else {
					target = st.cores[st.lh.Index(uint32(h))]
				}
			}
		}
	}
	return target
}

// highThresh resolves the configured overload trigger.
func (l *LAPS) highThresh(v npsim.View) int {
	if l.cfg.HighThresh > 0 {
		return l.cfg.HighThresh
	}
	return v.QueueCap() * 3 / 4
}

// maybeScan periodically marks long-idle cores surplus and unmarks
// surplus cores that have traffic again (§III-D). now must be v.Now(),
// passed in so the caller's clock read is not repeated.
func (l *LAPS) maybeScan(v npsim.View, now sim.Time) {
	if l.lastScan >= 0 && now-l.lastScan < l.cfg.ScanInterval {
		return
	}
	l.lastScan = now

	// Refresh the smoothed per-core load signal.
	const alpha = 0.2
	for c := 0; c < l.cfg.TotalCores; c++ {
		l.ewma[c] += alpha * (float64(v.QueueLen(c)) - l.ewma[c])
	}

	// Unmark surplus cores that are no longer idle.
	kept := l.surplus[:0]
	for _, e := range l.surplus {
		if v.IdleFor(e.core) == 0 {
			l.stats.SurplusUnmarks++
			if l.rec != nil {
				l.rec.Emit(obs.Event{Kind: obs.EvSurplusUnmark, Service: int16(l.owner[e.core]),
					Core: int32(e.core), Core2: -1})
			}
			continue
		}
		kept = append(kept, e)
	}
	l.surplus = kept

	// Mark newly idle cores. A service never offers its last core.
	for c := 0; c < l.cfg.TotalCores; c++ {
		if len(l.svc[l.owner[c]].cores) <= 1 {
			continue
		}
		if v.IdleFor(c) < l.cfg.IdleThresh {
			continue
		}
		if l.isSurplus(c) {
			continue
		}
		l.surplus = append(l.surplus, surplusEntry{core: c, since: now})
		l.stats.SurplusMarks++
		if l.rec != nil {
			l.rec.Emit(obs.Event{Kind: obs.EvSurplusMark, Service: int16(l.owner[c]),
				Core: int32(c), Core2: -1, Val: int64(v.IdleFor(c))})
		}
	}
}

func (l *LAPS) isSurplus(c int) bool {
	for _, e := range l.surplus {
		if e.core == c {
			return true
		}
	}
	return false
}

// requestCore grants the longest-marked surplus core of another service
// to the requesting service, updating both map tables incrementally.
// It reports whether a core was granted.
func (l *LAPS) requestCore(req int, v npsim.View) bool {
	l.stats.CoreRequests++
	best := -1
	for i, e := range l.surplus {
		if l.owner[e.core] == req {
			continue // its own surplus cores are already in its table
		}
		if len(l.svc[l.owner[e.core]].cores) <= 1 {
			continue // donor cannot give up its last core
		}
		if best < 0 || e.since < l.surplus[best].since {
			best = i
		}
	}
	if best < 0 {
		l.stats.CoreDenied++
		return false
	}
	c := l.surplus[best].core
	l.surplus = append(l.surplus[:best], l.surplus[best+1:]...)

	// Remove from the donor: shift the bucket list left and shrink the
	// donor's hash by one bucket (§III-D).
	donor := l.svc[l.owner[c]]
	for i, dc := range donor.cores {
		if dc == c {
			donor.cores = append(donor.cores[:i], donor.cores[i+1:]...)
			break
		}
	}
	donor.lh.Shrink()
	donor.mig.RemoveCore(c)
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvMapMerge, Service: int16(donor.id),
			Core: int32(c), Core2: -1, Val: int64(len(donor.cores))})
	}

	// Append to the requester and grow its hash: only the split bucket's
	// flows move, most of them onto the stolen (empty) core.
	reqSt := l.svc[req]
	reqSt.cores = append(reqSt.cores, c)
	reqSt.lh.Grow()
	if l.rec != nil {
		l.rec.Emit(obs.Event{Kind: obs.EvCoreSteal, Service: int16(req),
			Core: int32(c), Core2: -1, Val: int64(donor.id)})
		l.rec.Emit(obs.Event{Kind: obs.EvMapSplit, Service: int16(req),
			Core: int32(c), Core2: -1, Val: int64(len(reqSt.cores))})
	}
	l.owner[c] = req
	l.gen++
	l.stats.CoreGrants++
	return true
}

// Probes returns sampler probes over the scheduler's control-plane
// state: per-service core allocation, per-service aggregate queue depth
// (read through v), per-service AFD hit rate, the surplus-list length
// and the per-interval migration count.
func (l *LAPS) Probes(v npsim.View) []obs.Probe {
	ps := make([]obs.Probe, 0, 3*len(l.svc)+2)
	for i, st := range l.svc {
		st := st
		ps = append(ps,
			obs.Probe{Name: fmt.Sprintf("svc%d.cores", i), Fn: func() float64 {
				return float64(len(st.cores))
			}},
			obs.Probe{Name: fmt.Sprintf("svc%d.qdepth", i), Fn: func() float64 {
				q := 0
				for _, c := range st.cores {
					q += v.QueueLen(c)
				}
				return float64(q)
			}},
			st.det.HitRateProbe(fmt.Sprintf("svc%d.afd-hit", i)),
		)
	}
	ps = append(ps,
		obs.Probe{Name: "surplus", Fn: func() float64 { return float64(len(l.surplus)) }},
		obs.RateProbe("migrations", func() uint64 { return l.stats.Migrations }, nil),
	)
	return ps
}
