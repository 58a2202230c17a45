package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// Timeline samples LAPS's per-service core allocation while the
// Holt-Winters load swings — the behaviour §III-C/D describe ("The
// number of cores allocated to a service changes dynamically with
// traffic variations") shown as a time series.
func Timeline(opts Options) Table {
	opts = opts.withDefaults()
	sc := Scenarios()[4] // T5: overload, where reallocation is forced

	scheduler := core.New(core.Config{
		TotalCores: opts.Cores,
		Services:   packet.NumServices,
		AFD:        afd.Config{Seed: opts.Seed},
	})
	cfg := npsim.DefaultConfig()
	cfg.NumCores = opts.Cores
	sys, gen := NewSim(cfg, scheduler, sc.traffic(opts))

	t := Table{
		Title: "Dynamics: LAPS core allocation over time (scenario T5)",
		Columns: []string{"t", "model-t",
			"S1-cores", "S2-cores", "S3-cores", "S4-cores",
			"surplus", "grants", "drops-so-far"},
	}
	// One probe per table column: the shared obs.Sampler replaces the
	// bespoke eng.At sampling loop this experiment used to carry.
	const samples = 12
	probes := make([]obs.Probe, 0, packet.NumServices+3)
	for svc := 0; svc < packet.NumServices; svc++ {
		svc := svc
		probes = append(probes, obs.Probe{
			Name: fmt.Sprintf("S%d-cores", svc+1),
			Fn: func() float64 {
				return float64(len(scheduler.CoresOf(packet.ServiceID(svc))))
			},
		})
	}
	probes = append(probes,
		obs.Probe{Name: "surplus", Fn: func() float64 { return float64(scheduler.SurplusCount()) }},
		obs.RateProbe("grants", func() uint64 { return scheduler.Stats().CoreGrants }, nil),
		obs.Probe{Name: "drops-so-far", Fn: func() float64 { return float64(sys.Metrics().Dropped) }},
	)
	sampler := obs.NewSampler(opts.Duration/samples, probes...)
	sampler.Schedule(sys.Engine(), opts.Duration)
	gen.Start()
	sys.Engine().Run()

	ser := sampler.Series()
	for i := 0; i < ser.Len(); i++ {
		at := sim.Time(ser.Time(i)*float64(sim.Second) + 0.5)
		row := []string{at.String(), fmt.Sprintf("%.1fs", ser.Time(i)*opts.compression())}
		for c := 0; c < packet.NumServices+3; c++ {
			row = append(row, fmt.Sprintf("%d", int64(ser.At(c, i))))
		}
		t.AddRow(row...)
	}
	st := scheduler.Stats()
	t.AddNote("total: %d grants of %d requests, %d surplus marks; equal 4/4/4/4 split at t=0",
		st.CoreGrants, st.CoreRequests, st.SurplusMarks)
	return t
}

// Provisioning reproduces §II's motivation ("A system that can multiplex
// cores among different services fundamentally lowers the number of
// cores needed"): drop rates across core counts for dynamic LAPS vs a
// statically partitioned variant (reallocation disabled).
func Provisioning(opts Options) Table {
	opts = opts.withDefaults()
	sc := Scenarios()[4] // overload parameters exercise the worst case
	// Amplify the seasonal swings: dynamic allocation pays off exactly
	// when services peak at different times, which Set 2's mild
	// amplitudes (C/a ≈ 0.2) barely exercise. The mean rate — and hence
	// the calibration — is unchanged.
	for i := range sc.Params {
		sc.Params[i].C *= 3
	}
	coreCounts := []int{12, 16, 20, 24, 28}

	t := Table{
		Title:   "Provisioning: drop rate vs core count, dynamic vs static partitioning (T5 load)",
		Columns: []string{"cores", "static-partition", "laps-dynamic", "grants"},
	}
	type res struct {
		static, dynamic float64
		grants          uint64
	}
	results := parallelMap(opts.Workers, len(coreCounts), func(i int) res {
		cores := coreCounts[i]
		run := func(dynamic bool) (float64, uint64) {
			lcfg := core.Config{
				TotalCores: cores,
				Services:   packet.NumServices,
				AFD:        afd.Config{Seed: opts.Seed},
			}
			if !dynamic {
				// Static partitioning: never mark cores surplus, so no
				// reallocation can ever happen (design-time worst-case
				// provisioning, as §II describes).
				lcfg.IdleThresh = 1 << 62
			}
			scheduler := core.New(lcfg)
			cfg := npsim.DefaultConfig()
			cfg.NumCores = cores
			// Calibrate against the *16-core* baseline so absolute load is
			// identical across core counts: more cores = more headroom.
			base := opts
			base.Cores = 16
			sys, gen := NewSim(cfg, scheduler, sc.traffic(base))
			gen.Start()
			sys.Engine().Run()
			return sys.Metrics().DropRate(), scheduler.Stats().CoreGrants
		}
		st, _ := run(false)
		dy, g := run(true)
		return res{static: st, dynamic: dy, grants: g}
	})
	for i, cores := range coreCounts {
		r := results[i]
		t.AddRow(fmt.Sprintf("%d", cores), pct(r.static), pct(r.dynamic), n(r.grants))
	}
	t.AddNote("offered load fixed at the 16-core T5 level; dynamic allocation reaches a target loss with fewer cores")
	return t
}
