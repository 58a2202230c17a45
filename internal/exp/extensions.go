package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/rob"
	"laps/internal/sched"
	"laps/internal/sim"
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
//  3. per-service latency under the T1 multiservice scenario.
func Extensions(opts Options) []Table {
	opts = opts.withDefaults()
	return []Table{
		extAdaptive(opts),
		extRestoration(opts),
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
