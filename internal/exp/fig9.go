package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sched"
	"laps/internal/sim"
	"laps/internal/trace"
	"laps/internal/traffic"
)

// fig9Result carries the three Fig 9 metrics for one (trace, scheme) run.
type fig9Result struct {
	dropped    uint64
	ooo        uint64
	migrations uint64
}

// singleServiceSim builds the single-service (IP forwarding) overload
// stack of §V-C: one service active, input ≈ 105% of ideal capacity,
// real flow-skewed traces. A nil scheduler selects the FCFS shared
// queue.
func singleServiceSim(mkTrace func() trace.Source, scheduler npsim.Scheduler,
	opts Options, dur sim.Time) (*npsim.System, *traffic.Generator) {

	cfg := npsim.DefaultConfig()
	cfg.NumCores = opts.Cores
	cfg.SharedQueue = scheduler == nil
	// Single active service: every packet is IP forwarding. Slot 0
	// carries the ip-fwd delay model so LAPS (Services=1) sees service 0.
	ipfwd := npsim.DefaultServices()[packet.SvcIPForward]
	for i := range cfg.Services {
		cfg.Services[i] = ipfwd
	}
	// 105% of ideal capacity: cores / T_proc.
	capacityMpps := float64(opts.Cores) / (float64(ipfwd.Base) / 1000)
	rate := 1.05 * capacityMpps
	return NewSim(cfg, scheduler, traffic.Config{
		Sources: []traffic.ServiceSource{{
			Service: 0,
			Params:  traffic.RateParams{A: rate, Sigma: rate * 0.02},
			Trace:   mkTrace(),
		}},
		Duration: dur,
		Seed:     opts.Seed,
	})
}

// fig9Run runs the single-service overload scenario under one scheme.
func fig9Run(mkTrace func() trace.Source, scheduler npsim.Scheduler, opts Options, dur sim.Time) fig9Result {
	sys, gen := singleServiceSim(mkTrace, scheduler, opts, dur)
	gen.Start()
	sys.Engine().Run()

	m := sys.Metrics()
	return fig9Result{dropped: m.Dropped, ooo: m.OutOfOrder, migrations: m.Migrations}
}

// fig9LAPS builds a single-service LAPS whose AFC size is k (so at most
// the top k flows can ever be migrated).
func fig9LAPS(k int, opts Options) npsim.Scheduler {
	return core.New(core.Config{
		TotalCores: opts.Cores,
		Services:   1,
		AFD:        afd.Config{AFCSize: k, AnnexSize: 512, Seed: opts.Seed},
	})
}

// Fig9 reproduces Figure 9: drops, out-of-order packets and flow
// migrations relative to AFS when only the top flows are migrated.
// Returned tables are (a) drops, (b) OOO, (c) migrations, all as ratios
// to the AFS baseline (1.0 = same as AFS).
func Fig9(opts Options) []Table {
	opts = opts.withDefaults()
	dur := opts.Duration / 4
	if dur < 2*sim.Millisecond {
		dur = 2 * sim.Millisecond
	}
	traces := detectorTraces()

	schemes := []struct {
		name string
		mk   func() npsim.Scheduler
	}{
		{"no-mig", func() npsim.Scheduler { return sched.HashOnly{} }},
		{"laps-top4", func() npsim.Scheduler { return fig9LAPS(4, opts) }},
		{"laps-top10", func() npsim.Scheduler { return fig9LAPS(10, opts) }},
		{"laps-top16", func() npsim.Scheduler { return fig9LAPS(16, opts) }},
		{"oracle-16", func() npsim.Scheduler { return &sched.TopKOracle{K: 16} }},
	}

	type job struct {
		trace  int
		scheme int // -1 = AFS baseline
	}
	var jobs []job
	for ti := range traces {
		jobs = append(jobs, job{ti, -1})
		for si := range schemes {
			jobs = append(jobs, job{ti, si})
		}
	}
	results := parallelMap(opts.Workers, len(jobs), func(i int) fig9Result {
		j := jobs[i]
		if j.scheme < 0 {
			return fig9Run(traces[j.trace], &sched.AFS{}, opts, dur)
		}
		return fig9Run(traces[j.trace], schemes[j.scheme].mk(), opts, dur)
	})
	res := map[string]fig9Result{}
	for i, j := range jobs {
		name := "afs"
		if j.scheme >= 0 {
			name = schemes[j.scheme].name
		}
		res[fmt.Sprintf("%d/%s", j.trace, name)] = results[i]
	}

	ratio := func(num, den uint64) string {
		if den == 0 {
			if num == 0 {
				return "1.00"
			}
			return "inf"
		}
		return fmt.Sprintf("%.3f", float64(num)/float64(den))
	}

	cols := []string{"trace", "afs"}
	for _, s := range schemes {
		cols = append(cols, s.name)
	}
	drops := Table{Title: "Fig 9a: packets dropped relative to AFS", Columns: cols}
	ooo := Table{Title: "Fig 9b: out-of-order packets relative to AFS", Columns: cols}
	migr := Table{Title: "Fig 9c: flow migrations relative to AFS", Columns: cols}

	for ti := range traces {
		base := res[fmt.Sprintf("%d/afs", ti)]
		name := traces[ti]().Name()
		dr := []string{name, "1.000"}
		or := []string{name, "1.000"}
		mr := []string{name, "1.000"}
		for _, s := range schemes {
			r := res[fmt.Sprintf("%d/%s", ti, s.name)]
			dr = append(dr, ratio(r.dropped, base.dropped))
			or = append(or, ratio(r.ooo, base.ooo))
			mr = append(mr, ratio(r.migrations, base.migrations))
		}
		drops.AddRow(dr...)
		ooo.AddRow(or...)
		migr.AddRow(mr...)
	}
	note := fmt.Sprintf("single service (ip-fwd), %d cores, input 105%%%% of ideal capacity, %v window",
		opts.Cores, dur)
	drops.AddNote(note)
	ooo.AddNote(note)
	migr.AddNote(note)
	return []Table{drops, ooo, migr}
}
