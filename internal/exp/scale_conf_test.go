package exp

import (
	"math"
	"testing"

	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/traffic"
)

// scenarioDepartures runs one scenario under the given scheduler and
// hands every departing packet to depart — one departure stream, so
// trackers fed from it are packet-for-packet comparable. Returns the
// run's metrics for context.
func scenarioDepartures(sc Scenario, opts Options, kind SchedKind, depart func(*packet.Packet)) npsim.Metrics {
	opts = opts.withDefaults()
	scheduler, cfg := buildScheduler(kind, opts, packet.NumServices, 0)
	eng := sim.NewEngine()
	sys := npsim.New(eng, cfg, scheduler)
	sys.OnDepart = depart
	scale := calibrate(sc, opts)
	var sources []traffic.ServiceSource
	for svc := 0; svc < packet.NumServices; svc++ {
		sources = append(sources, traffic.ServiceSource{
			Service: packet.ServiceID(svc),
			Params:  sc.Params[svc],
			Trace:   sc.Group.Sources[svc](),
		})
	}
	gen := traffic.NewGenerator(eng, traffic.Config{
		Sources:         sources,
		Duration:        opts.Duration,
		TimeCompression: opts.compression(),
		RateScale:       scale,
		Seed:            opts.Seed,
	}, sys.Inject)
	gen.Start()
	eng.Run()
	return *sys.Metrics()
}

// witnessRun is one scenario's departure stream scored by an exact
// tracker and a witness side by side.
type witnessRun struct {
	m       npsim.Metrics
	exact   *npsim.ReorderTracker
	witness *npsim.ReorderTracker
	extra   uint64                    // packets the witness flagged and the exact tracker did not
	perFlow map[packet.FlowKey]uint64 // exact OOO per flow
}

// scoreScenario feeds one scenario's departures to both trackers.
func scoreScenario(sc Scenario, opts Options, kind SchedKind, budget int) witnessRun {
	r := witnessRun{
		exact:   npsim.NewTracker(npsim.TrackerConfig{}),
		witness: npsim.NewTracker(npsim.TrackerConfig{FlowBudget: budget, Memory: npsim.MemorySketch}),
		perFlow: map[packet.FlowKey]uint64{},
	}
	r.m = scenarioDepartures(sc, opts, kind, func(p *packet.Packet) {
		e := r.exact.Record(p)
		if w := r.witness.Record(p); w && !e {
			r.extra++
		}
		if e {
			r.perFlow[p.Flow]++
		}
	})
	return r
}

// TestScaleConformanceScenarios is the exact-vs-witness conformance
// suite over Table VI: every T1..T8 departure stream is scored by an
// exact tracker and a MemorySketch witness at once, the witness small
// enough that its level rises past 0.
//
// Under LAPS, the witness's verdicts must be a subset of the exact
// ones, packet for packet: it flags nothing the exact tracker does not.
//
// Under AFS, where reordering is plentiful, the witness's estimate of
// the whole count — each control-group detection weighted 2^level
// (ScaledOOO; the simulator moves no flows through MarkMoved, so there
// is no sensitive group) — must fall within its binomial 99 % interval
// of the exact count. The trials are flows, not packets: each flow is
// in the control group with probability 2^-level, carrying all of its
// reorderings, so the variance is (2^level - 1) · Σ n_f² over the exact
// per-flow counts n_f, taken at the final (highest) level.
func TestScaleConformanceScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("16 scenario simulations take a few seconds")
	}
	opts := Options{Duration: 30 * sim.Millisecond, Seed: 7}
	const budget = 1 << 10 // a 64-flow witness
	scs := Scenarios()
	for _, kind := range []SchedKind{KindLAPS, KindAFS} {
		runs := parallelMap(opts.withDefaults().Workers, len(scs), func(i int) witnessRun {
			return scoreScenario(scs[i], opts, kind, budget)
		})
		for i, sc := range scs {
			r := runs[i]
			exactOOO, witOOO := r.exact.OutOfOrder(), r.witness.OutOfOrder()
			if r.m.Completed == 0 {
				t.Fatalf("%s/%s: scenario completed no packets", kind, sc.Name)
			}
			if r.extra != 0 {
				t.Errorf("%s/%s: witness flagged %d in-order packets (false positives)", kind, sc.Name, r.extra)
			}
			if r.witness.EstimatedOOO() != witOOO {
				t.Errorf("%s/%s: EstimatedOOO=%d but OutOfOrder=%d; a MemorySketch tracker samples every detection",
					kind, sc.Name, r.witness.EstimatedOOO(), witOOO)
			}
			if r.witness.Level() == 0 {
				t.Errorf("%s/%s: witness level 0 — the test needs a sampled witness", kind, sc.Name)
			}
			if r.exact.BudgetHits() != 0 {
				t.Errorf("%s/%s: exact tracker degraded (hits=%d)", kind, sc.Name, r.exact.BudgetHits())
			}
			var sumSq float64
			for _, n := range r.perFlow {
				sumSq += float64(n) * float64(n)
			}
			lvl := r.witness.Level()
			sd := math.Sqrt(float64(uint64(1)<<lvl-1) * sumSq)
			scaled := r.witness.ScaledOOO()
			z := 0.0
			if sd > 0 {
				z = (float64(scaled) - float64(exactOOO)) / sd
			}
			t.Logf("%s/%s: completed %d, exact OOO %d over %d flows, witness %d at level %d, scaled %d (z %.2f), evicted %d",
				kind, sc.Name, r.m.Completed, exactOOO, len(r.perFlow), witOOO, lvl, scaled, z, r.witness.Evicted())
			if kind != KindAFS {
				continue
			}
			if exactOOO < 100 {
				t.Errorf("%s/%s: only %d exact reorderings; the interval check needs plenty", kind, sc.Name, exactOOO)
			}
			if math.Abs(z) > 2.576 {
				t.Errorf("%s/%s: scaled estimate %d outside the 99%% interval %d ± %.0f", kind, sc.Name, scaled, exactOOO, 2.576*sd)
			}
		}
	}
}

// TestScaleSketchSystemRuns pins that a full MemorySketch system run —
// sampled witness, bounded flow-affinity table — completes every
// scenario and surfaces its estimation in Metrics. The delay model may
// legitimately differ from the exact run (coarse affinity changes
// cold-cache accounting), so this asserts behaviour, not equality.
func TestScaleSketchSystemRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation takes a second")
	}
	opts := Options{Duration: 2 * sim.Millisecond, Seed: 7}.withDefaults()
	scheduler, cfg := buildScheduler(KindLAPS, opts, packet.NumServices, 0)
	cfg.FlowBudget = 1 << 10
	cfg.Memory = npsim.MemorySketch
	eng := sim.NewEngine()
	sys := npsim.New(eng, cfg, scheduler)
	sc := Scenarios()[4] // T5: overload, heavy migration
	scale := calibrate(sc, opts)
	var sources []traffic.ServiceSource
	for svc := 0; svc < packet.NumServices; svc++ {
		sources = append(sources, traffic.ServiceSource{
			Service: packet.ServiceID(svc), Params: sc.Params[svc], Trace: sc.Group.Sources[svc](),
		})
	}
	gen := traffic.NewGenerator(eng, traffic.Config{
		Sources: sources, Duration: opts.Duration,
		TimeCompression: opts.compression(), RateScale: scale, Seed: opts.Seed,
	}, sys.Inject)
	gen.Start()
	eng.Run()
	m := sys.Metrics()
	if m.Completed == 0 {
		t.Fatal("MemorySketch system completed no packets")
	}
	if m.OutOfOrder > 0 && m.EstimatedOOO != m.OutOfOrder {
		t.Fatalf("MemorySketch run: EstimatedOOO=%d OutOfOrder=%d, want equal", m.EstimatedOOO, m.OutOfOrder)
	}
}
