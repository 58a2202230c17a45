package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/power"
	"laps/internal/rob"
	"laps/internal/sched"
	"laps/internal/sim"
	"laps/internal/sketch"
	"laps/internal/stats"
	"laps/internal/trace"
)

// Extensions runs the three studies that go beyond the paper's own
// evaluation but are grounded in its related-work discussion:
//
//  1. adaptive (bundle-level) hashing [22][36] as a further baseline on
//     the Fig 9 workload;
//  2. order *restoration* via an egress re-order buffer [35] versus
//     LAPS's order *preservation*, measuring the storage and latency
//     overhead the paper argues against;
//  3. power gating of idle cores [20][29]: how much gateable idleness
//     each scheduler's core usage exposes.
func Extensions(opts Options) []Table {
	opts = opts.withDefaults()
	return []Table{
		extAdaptive(opts),
		extRestoration(opts),
		extPower(opts),
		extDetectors(opts),
		extLatency(opts),
	}
}

// extLatency reports per-service mean and tail latency under the T1
// multiservice scenario — the "latency sensitive" dimension the paper's
// introduction motivates but its evaluation does not plot.
func extLatency(opts Options) Table {
	t := Table{
		Title:   "Extension: per-service latency, T1 multiservice scenario (mean / p99 bound)",
		Columns: []string{"scheduler", "vpn-out", "ip-fwd", "scan", "vpn-in"},
	}
	kinds := []SchedKind{KindFCFS, KindAFS, KindLAPS}
	results := parallelMap(opts.Workers, len(kinds), func(i int) RunResult {
		return runScenario(Scenarios()[0], kinds[i], opts)
	})
	for i, kind := range kinds {
		m := results[i].Metrics
		row := []string{string(kind)}
		for svc := 0; svc < packet.NumServices; svc++ {
			s := packet.ServiceID(svc)
			row = append(row, fmt.Sprintf("%v / %v", m.LatencyMean(s), m.LatencyP99(s)))
		}
		t.AddRow(row...)
	}
	t.AddNote("arrival→departure; p99 is a log2-bucket upper bound")
	return t
}

// extDetectors compares the AFD against the counter-based heavy-hitter
// detectors of the related work (CountMin/multistage filters [12],
// SpaceSaving-style summaries) at comparable and larger state budgets.
func extDetectors(opts Options) Table {
	t := Table{
		Title:   "Extension: AFD vs counter-based heavy-hitter detection (top-16)",
		Columns: []string{"trace", "afd(528ent)", "cm(8k ctrs)", "cm(2k ctrs)", "spacesaving(512)", "spacesaving(64)"},
	}
	srcs := detectorTraces()
	rows := parallelMap(opts.Workers, len(srcs), func(i int) []string {
		src := srcs[i]()
		det := afd.New(afd.Config{Seed: opts.Seed})
		cmBig := sketch.NewCMTopK(2048, 4, 16)
		cmSmall := sketch.NewCMTopK(512, 4, 16)
		ssBig := sketch.NewSpaceSaving(512)
		ssSmall := sketch.NewSpaceSaving(64)
		truth := afd.NewExactCounter()
		for p := 0; p < opts.StreamPackets; p++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			det.Observe(rec.Flow)
			cmBig.Observe(rec.Flow)
			cmSmall.Observe(rec.Flow)
			ssBig.Observe(rec.Flow)
			ssSmall.Observe(rec.Flow)
			truth.Observe(rec.Flow)
		}
		fpr := func(detected []packet.FlowKey) string {
			return f(afd.Evaluate(detected, truth, 16).FPR)
		}
		return []string{
			src.Name(),
			fpr(det.Aggressive()),
			fpr(cmBig.Aggressive()),
			fpr(cmSmall.Aggressive()),
			fpr(ssBig.Top(16)),
			fpr(ssSmall.Top(16)),
		}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.AddNote("FPR against exact top-16; AFD state = 528 flow entries, CountMin = counters + 16 candidates")
	t.AddNote("the AFD trades exact rate estimation for cheap membership — the paper's design point")
	return t
}

// extAdaptive compares adaptive bundle hashing against the paper's
// schemes on the single-service overload workload.
func extAdaptive(opts Options) Table {
	dur := opts.Duration / 4
	if dur < 2*sim.Millisecond {
		dur = 2 * sim.Millisecond
	}
	t := Table{
		Title:   "Extension: adaptive bundle hashing (Shi&Kencl) vs flow-level schemes",
		Columns: []string{"scheme", "drop%", "ooo%", "migrations", "bundle-moves", "jain-balance"},
	}
	mk := func() trace.Source { return trace.CAIDALike(1) }
	type res struct {
		name  string
		m     npsim.Metrics
		moves uint64
		jain  float64
	}
	schemes := []func() (string, npsim.Scheduler){
		func() (string, npsim.Scheduler) { return "hash-only", sched.HashOnly{} },
		func() (string, npsim.Scheduler) { return "adaptive-hash", &sched.AdaptiveHash{} },
		func() (string, npsim.Scheduler) { return "afs", &sched.AFS{} },
		func() (string, npsim.Scheduler) {
			return "laps", core.New(core.Config{TotalCores: opts.Cores, Services: 1, AFD: afd.Config{Seed: opts.Seed}})
		},
	}
	results := parallelMap(opts.Workers, len(schemes), func(i int) res {
		name, s := schemes[i]()
		sys, gen := singleServiceSim(mk, s, opts, dur)
		gen.Start()
		sys.Engine().Run()
		r := res{name: name, m: *sys.Metrics()}
		if ah, ok := s.(*sched.AdaptiveHash); ok {
			r.moves = ah.BundleMoves()
		}
		busy := make([]float64, 0, opts.Cores)
		for _, cr := range sys.CoreReports() {
			busy = append(busy, float64(cr.BusyTime))
		}
		r.jain = stats.Jain(busy)
		return r
	})
	for _, r := range results {
		moves := "-"
		if r.name == "adaptive-hash" {
			moves = n(r.moves)
		}
		t.AddRow(r.name, pct(r.m.DropRate()), pct(r.m.OOORate()), n(r.m.Migrations), moves,
			fmt.Sprintf("%.4f", r.jain))
	}
	t.AddNote("single service at 105%% capacity, %v window; bundle moves migrate whole hash buckets", dur)
	return t
}

// extRestoration contrasts order restoration (AFS + egress re-order
// buffer) with LAPS's order preservation.
func extRestoration(opts Options) Table {
	dur := opts.Duration / 4
	if dur < 2*sim.Millisecond {
		dur = 2 * sim.Millisecond
	}
	t := Table{
		Title:   "Extension: order restoration (egress ROB) vs LAPS order preservation",
		Columns: []string{"scheme", "ooo-before", "ooo-after", "rob-held", "rob-max-occupancy", "mean-hold"},
	}
	mk := func() trace.Source { return trace.CAIDALike(1) }

	type job struct {
		name   string
		mkS    func() npsim.Scheduler
		useROB bool
	}
	jobs := []job{
		{"afs+rob", func() npsim.Scheduler { return &sched.AFS{} }, true},
		{"fcfs+rob", nil, true},
		{"laps (no rob)", func() npsim.Scheduler {
			return core.New(core.Config{TotalCores: opts.Cores, Services: 1, AFD: afd.Config{Seed: opts.Seed}})
		}, false},
	}
	type res struct {
		before, after uint64
		rs            rob.Stats
		hold          sim.Time
	}
	results := parallelMap(opts.Workers, len(jobs), func(i int) res {
		j := jobs[i]
		var scheduler npsim.Scheduler // nil = FCFS
		if j.mkS != nil {
			scheduler = j.mkS()
		}
		sys, gen := singleServiceSim(mk, scheduler, opts, dur)
		// Final egress is where a descriptor's life ends: the ROB keeps
		// packets long after the system hands them over.
		tracker := npsim.NewTracker(npsim.TrackerConfig{})
		egress := func(p *packet.Packet) {
			tracker.Record(p)
			sys.Free.Put(p)
		}
		var buf *rob.Buffer
		if j.useROB {
			buf = rob.New(sys.Engine(), rob.Config{Capacity: 4096, Timeout: 100 * sim.Microsecond}, egress)
			sys.OnDepart = buf.Push
		} else {
			sys.OnDepart = egress
		}
		gen.Start()
		sys.Engine().Run()
		if buf != nil {
			buf.Flush()
		}
		r := res{before: sys.Metrics().OutOfOrder, after: tracker.OutOfOrder()}
		if buf != nil {
			r.rs = buf.Stats()
			if r.rs.Held > 0 {
				r.hold = r.rs.HeldTime / sim.Time(r.rs.Held)
			}
		}
		return r
	})
	for i, j := range jobs {
		r := results[i]
		held, occ, hold := "-", "-", "-"
		if j.useROB {
			held = n(r.rs.Held)
			occ = fmt.Sprintf("%d", r.rs.MaxOccupancy)
			hold = r.hold.String()
		}
		t.AddRow(j.name, n(r.before), n(r.after), held, occ, hold)
	}
	t.AddNote("rob: 4096-descriptor egress buffer, 100us gap timeout — the storage the paper's design avoids")
	return t
}

// extPower estimates gating energy per scheduler under a seasonal
// multiservice load (surplus cores are what power management harvests).
func extPower(opts Options) Table {
	t := Table{
		Title:   "Extension: power gating opportunity per scheduler (seasonal multiservice load)",
		Columns: []string{"scheduler", "completed", "energy-J", "ungated-J", "savings", "gated-time", "nJ/pkt"},
	}
	sc := Scenarios()[0] // T1: under-load, where idleness exists
	kinds := []SchedKind{KindFCFS, KindAFS, KindLAPS, "laps-consolidate"}
	model := power.DefaultModel()

	type res struct {
		kind      SchedKind
		completed uint64
		est       power.Estimate
	}
	results := parallelMap(opts.Workers, len(kinds), func(i int) res {
		kind := kinds[i]
		var scheduler npsim.Scheduler
		var cfg npsim.Config
		if kind == "laps-consolidate" {
			cfg = npsim.DefaultConfig()
			cfg.NumCores = opts.Cores
			scheduler = core.New(core.Config{
				TotalCores:  opts.Cores,
				Services:    packet.NumServices,
				Consolidate: true,
				AFD:         afd.Config{Seed: opts.Seed},
			})
		} else {
			scheduler, cfg = buildScheduler(kind, opts, packet.NumServices, 0)
		}
		sys, gen := NewSim(cfg, scheduler, sc.traffic(opts))
		gen.Start()
		sys.Engine().Run()
		est := power.Analyze(sys.CoreReports(), sys.Engine().Now(), model)
		return res{kind: kind, completed: sys.Metrics().Completed, est: est}
	})
	for _, r := range results {
		perPkt := 0.0
		if r.completed > 0 {
			perPkt = r.est.WithGating / float64(r.completed) * 1e9
		}
		t.AddRow(string(r.kind), n(r.completed),
			fmt.Sprintf("%.4f", r.est.WithGating),
			fmt.Sprintf("%.4f", r.est.WithoutGating),
			pct(r.est.Savings()),
			pct(r.est.GatedFraction),
			fmt.Sprintf("%.1f", perPkt))
	}
	t.AddNote("model: %.2gW active / %.2gW idle / %.2gW gated, %v wake, gate after %v idle",
		model.ActiveWatts, model.IdleWatts, model.SleepWatts, model.WakeLatency, model.GateThreshold)
	t.AddNote("LAPS completes more packets AND leaves idleness concentrated on surplus cores")
	return t
}
