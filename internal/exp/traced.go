package exp

import (
	"fmt"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/stats"
)

// TracedResult bundles the outputs of one fully instrumented run.
type TracedResult struct {
	Scenario string
	Metrics  npsim.Metrics
	Series   *stats.Series // nil unless a metrics interval was given
}

// Traced runs one Table VI scenario under LAPS with the telemetry stack
// attached: rec (which may be nil) captures the control-plane event
// stream, and when interval > 0 a sampler polls the system and
// scheduler probes every interval of simulated time into a columnar
// series. Scenario names are Table VI's T1..T8; "" defaults to T5,
// whose overload forces the migrations and core steals a trace is
// usually after.
func Traced(opts Options, scenario string, rec *obs.Recorder, interval sim.Time) (TracedResult, error) {
	opts = opts.withDefaults()
	if scenario == "" {
		scenario = "T5"
	}
	var sc Scenario
	found := false
	for _, s := range Scenarios() {
		if s.Name == scenario {
			sc, found = s, true
			break
		}
	}
	if !found {
		return TracedResult{}, fmt.Errorf("exp: unknown scenario %q (want T1..T8)", scenario)
	}

	scheduler := core.New(core.Config{
		TotalCores: opts.Cores,
		Services:   packet.NumServices,
		AFD:        afd.Config{Seed: opts.Seed},
	})
	cfg := npsim.DefaultConfig()
	cfg.NumCores = opts.Cores
	sys, gen := NewSim(cfg, scheduler, sc.traffic(opts))
	sys.SetRecorder(rec)

	var sampler *obs.Sampler
	if interval > 0 {
		probes := append(sys.Probes(), scheduler.Probes(sys)...)
		sampler = obs.NewSampler(interval, probes...)
		sampler.Schedule(sys.Engine(), opts.Duration)
	}
	gen.Start()
	sys.Engine().Run()

	res := TracedResult{
		Scenario: sc.Name,
		Metrics:  *sys.Metrics(),
	}
	if sampler != nil {
		res.Series = sampler.Series()
	}
	return res, nil
}
