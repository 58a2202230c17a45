package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/sched"
	"laps/internal/sim"
	"laps/internal/stats"
	"laps/internal/trace"
)

// Variance reruns the Fig 9 headline comparison across several seeds and
// reports mean ± standard deviation for each metric ratio, quantifying
// how robust the reproduced orderings are to randomness (a check the
// paper itself does not report).
func Variance(opts Options) Table {
	opts = opts.withDefaults()
	dur := opts.Duration / 4
	if dur < 2*sim.Millisecond {
		dur = 2 * sim.Millisecond
	}
	seeds := []uint64{1, 2, 3, 5, 8}

	t := Table{
		Title:   "Robustness: Fig 9 ratios vs AFS across seeds (mean ± std)",
		Columns: []string{"metric", "no-mig", "laps-top16", "oracle-16"},
	}

	type ratios struct{ drops, ooo, migr [3]float64 } // [noMig, laps, oracle]
	results := parallelMap(opts.Workers, len(seeds), func(i int) ratios {
		o := opts
		o.Seed = seeds[i]
		mk := func() trace.Source { return trace.CAIDALike(1) }
		base := fig9Run(mk, &sched.AFS{}, o, dur)

		var r ratios
		schemes := []npsim.Scheduler{
			sched.HashOnly{},
			core.New(core.Config{TotalCores: o.Cores, Services: 1, AFD: afd.Config{Seed: o.Seed}}),
			&sched.TopKOracle{K: 16},
		}
		for si, s := range schemes {
			m := fig9Run(mk, s, o, dur)
			r.drops[si] = ratio64(m.dropped, base.dropped)
			r.ooo[si] = ratio64(m.ooo, base.ooo)
			r.migr[si] = ratio64(m.migrations, base.migrations)
		}
		return r
	})

	metricRows := []struct {
		name string
		get  func(ratios) [3]float64
	}{
		{"drops/afs", func(r ratios) [3]float64 { return r.drops }},
		{"ooo/afs", func(r ratios) [3]float64 { return r.ooo }},
		{"migrations/afs", func(r ratios) [3]float64 { return r.migr }},
	}
	for _, mr := range metricRows {
		var agg [3]stats.Welford
		for _, r := range results {
			v := mr.get(r)
			for i := 0; i < 3; i++ {
				agg[i].Add(v[i])
			}
		}
		cell := func(i int) string {
			return fmt.Sprintf("%.3f±%.3f", agg[i].Mean(), agg[i].Std())
		}
		t.AddRow(mr.name, cell(0), cell(1), cell(2))
	}
	t.AddNote("%d seeds, caida-like-1, single service at 105%% capacity, %v windows",
		len(seeds), dur)
	return t
}

// ratio64 divides counters, treating 0/0 as 1 and x/0 as +inf-ish.
func ratio64(num, den uint64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return 999
	}
	return float64(num) / float64(den)
}
