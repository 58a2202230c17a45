// Command lapsim runs the paper-reproduction experiments and prints
// their tables (ASCII by default, CSV with -csv).
//
// Usage:
//
//	lapsim -exp fig7                 # one experiment
//	lapsim -exp all -duration 500ms  # everything, longer window
//	lapsim -list                     # available experiments
//
// Telemetry mode (any of -trace/-chrome/-metrics) runs one instrumented
// scenario instead of the table experiments:
//
//	lapsim -trace out.jsonl                  # control-plane event stream
//	lapsim -chrome out.json -scenario T6     # chrome://tracing timeline
//	lapsim -metrics out.csv -metrics-interval 500us
//
// Live mode (-live) executes one scenario on real goroutine cores with
// SPSC rings instead of the simulator (see docs/RUNTIME.md):
//
//	lapsim -live -scenario T5 -live-workers 8
//	lapsim -live -pcap capture.pcap -live-pace 1   # paced pcap replay
//	lapsim -live -live-dispatchers 4               # sharded data plane
//	lapsim -live -http 127.0.0.1:9090              # Prometheus /metrics + /healthz
//
// The four modes (-exp, -list, -trace/-chrome/-metrics, -live) are
// mutually exclusive; combining them is a usage error.
//
// Profiling hooks (-cpuprofile/-memprofile) work in every mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"laps"
	"laps/internal/exp"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/traffic"
	"laps/internal/version"
)

var (
	name     = flag.String("exp", "all", "experiment name or 'all'")
	list     = flag.Bool("list", false, "list experiments and exit")
	dur      = flag.Duration("duration", 200*time.Millisecond, "simulated traffic window per scenario")
	modelSec = flag.Float64("model-seconds", 60, "seconds of Holt-Winters dynamics the window sweeps")
	cores    = flag.Int("cores", 16, "number of processor cores")
	seed     = flag.Uint64("seed", 1, "random seed")
	workers  = flag.Int("workers", 0, "parallel scenario workers (0 = GOMAXPROCS)")
	packets  = flag.Int("stream-packets", 400000, "packets per trace for detector experiments")
	csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut  = flag.Bool("json", false, "emit JSON instead of aligned tables")
	outPath  = flag.String("o", "", "write results to a file instead of stdout")

	tracePath   = flag.String("trace", "", "run one instrumented scenario and write its event stream as JSONL to this file")
	chromePath  = flag.String("chrome", "", "like -trace but in Chrome trace-event JSON (open in chrome://tracing)")
	metricsPath = flag.String("metrics", "", "write the instrumented scenario's sampled time series as CSV to this file")
	metricsInt  = flag.Duration("metrics-interval", time.Millisecond, "simulated-time sampling interval for -metrics")
	scenario    = flag.String("scenario", "T5", "Table VI scenario (T1..T8) for telemetry and live mode")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	verbose     = flag.Bool("v", false, "verbose (debug-level) progress logging")

	live        = flag.Bool("live", false, "run one scenario on live goroutine workers instead of the simulator")
	liveWorkers = flag.Int("live-workers", 4, "live mode: worker goroutines (cores)")
	liveDisp    = flag.Int("live-dispatchers", 0, "live mode: ingress dispatcher shards resolving flows lock-free against published forwarding snapshots (0 = classic single dispatcher)")
	livePace    = flag.Float64("live-pace", 0, "live mode: playback speed vs the virtual clock (1 = real time, 0 = flat out)")
	liveWork    = flag.String("live-work", "none", "live mode: per-packet work emulation (none|spin|sleep)")
	liveBlock   = flag.Bool("live-block", false, "live mode: apply backpressure instead of dropping on full rings")
	liveFaults  = flag.String("live-faults", "", "live mode: inject worker faults; comma-separated kind:worker@after[:duration] entries (stall:1@2000:500ms, slow:2@100:1s, kill:3@1500) or rand:SEED for a generated plan")
	liveDetect  = flag.Duration("live-detect", 100*time.Millisecond, "live mode: health-monitor detection window for stalled/dead workers (0 disables the monitor)")
	flowBudget  = flag.Int("flow-budget", 0, "live mode: keep exact per-flow reorder state for up to this many flows, then switch to a sampled witness (0 = exact and unbounded; fences are bounded by the rings regardless); see docs/SCALE.md")
	pcapPath    = flag.String("pcap", "", "live mode: replay this pcap capture (looped) instead of the scenario traces")
	httpAddr    = flag.String("http", "", "live mode: serve admin endpoints (/metrics, /healthz, /debug/pprof) on this address for the duration of the run")
	showVer     = flag.Bool("version", false, "print version and exit")
)

// modeFlags maps each mode-selecting flag to the mode it requests, and
// optionFlags ties mode-specific options to the modes that honour them.
var (
	modeFlags = map[string]string{
		"exp":     "table",
		"list":    "list",
		"trace":   "telemetry",
		"chrome":  "telemetry",
		"metrics": "telemetry",
		"live":    "live",
	}
	optionFlags = map[string][]string{
		"metrics-interval": {"telemetry"},
		"scenario":         {"telemetry", "live"},
		"live-workers":     {"live"},
		"live-dispatchers": {"live"},
		"live-pace":        {"live"},
		"live-work":        {"live"},
		"live-block":       {"live"},
		"live-faults":      {"live"},
		"live-detect":      {"live"},
		"flow-budget":      {"live"},
		"pcap":             {"live"},
		"http":             {"live"},
	}
)

// validateFlags rejects flag combinations that mix modes, returning the
// selected mode ("table" when none was picked explicitly). set names the
// flags given on the command line; metricsInterval and httpAddr are the
// values of -metrics-interval and -http.
func validateFlags(set map[string]bool, metricsInterval time.Duration, httpAddr string) (string, error) {
	picked := map[string]bool{}
	for name, mode := range modeFlags {
		if set[name] {
			picked[mode] = true
		}
	}
	if len(picked) > 1 {
		modes := make([]string, 0, len(picked))
		for m := range picked {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		return "", fmt.Errorf("flags select conflicting modes (%s): -exp, -list, -trace/-chrome/-metrics and -live are mutually exclusive",
			strings.Join(modes, ", "))
	}
	mode := "table"
	for m := range picked {
		mode = m
	}
	for name, modes := range optionFlags {
		if !set[name] {
			continue
		}
		ok := false
		for _, m := range modes {
			ok = ok || m == mode
		}
		if !ok {
			return "", fmt.Errorf("-%s only applies to %s mode", name, strings.Join(modes, "/"))
		}
	}
	if set["metrics-interval"] && metricsInterval <= 0 {
		return "", fmt.Errorf("-metrics-interval must be positive, got %v", metricsInterval)
	}
	if set["http"] && httpAddr == "" {
		return "", fmt.Errorf("-http needs a listen address (e.g. -http 127.0.0.1:9090)")
	}
	return mode, nil
}

func main() {
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("lapsim"))
		return
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode, err := validateFlags(set, *metricsInt, *httpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapsim: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	lvl := slog.LevelWarn
	if *verbose {
		lvl = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	if *list {
		for _, n := range exp.Names() {
			fmt.Printf("%-10s %s\n", n, exp.Registry()[n].Brief)
		}
		return
	}
	if err := run(mode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(mode string) error {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
		slog.Debug("cpu profiling enabled", "path", *cpuProfile)
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			slog.Error("memprofile", "err", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			slog.Error("memprofile", "err", err)
		}
	}()

	opts := exp.Options{
		Duration:      sim.Time(dur.Nanoseconds()),
		ModelSeconds:  *modelSec,
		Cores:         *cores,
		Seed:          *seed,
		Workers:       *workers,
		StreamPackets: *packets,
	}

	switch mode {
	case "telemetry":
		return runTraced(opts)
	case "live":
		return runLive(opts)
	default:
		return runTables(opts)
	}
}

// runLive executes one Table VI scenario (or a pcap replay) on the live
// goroutine runtime and prints its data-path counters.
func runLive(opts exp.Options) error {
	var work laps.WorkKind
	switch *liveWork {
	case "none":
		work = laps.WorkNone
	case "spin":
		work = laps.WorkSpin
	case "sleep":
		work = laps.WorkSleep
	default:
		return fmt.Errorf("unknown -live-work %q (want none, spin or sleep)", *liveWork)
	}

	cfg := laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration:        sim.Time(dur.Nanoseconds()),
			TimeCompression: opts.ModelSeconds / dur.Seconds(),
			Seed:            *seed,
			FlowBudget:      *flowBudget,
		},
		Workers:      *liveWorkers,
		Dispatchers:  *liveDisp,
		Pace:         *livePace,
		Block:        *liveBlock,
		Work:         work,
		DetectWindow: *liveDetect,
	}
	if *liveFaults != "" {
		plan, err := parseFaultPlan(*liveFaults, *liveWorkers)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			return err
		}
		recs, err := laps.ReadPcap(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s: empty capture", *pcapPath)
		}
		rs := make([]laps.TraceRecord, len(recs))
		for i, r := range recs {
			rs[i] = r.Record
		}
		cfg.Traffic = []laps.ServiceTraffic{{
			Service: laps.SvcIPForward,
			Params:  traffic.Set1()[packet.SvcIPForward],
			Trace:   laps.ReplayTrace(filepath.Base(*pcapPath), rs, true),
		}}
	} else {
		sc, err := findScenario(*scenario)
		if err != nil {
			return err
		}
		for svc := 0; svc < packet.NumServices; svc++ {
			cfg.Traffic = append(cfg.Traffic, laps.ServiceTraffic{
				Service: packet.ServiceID(svc),
				Params:  sc.Params[svc],
				Trace:   sc.Group.Sources[svc](),
			})
		}
	}

	slog.Debug("live run", "workers", *liveWorkers, "duration", *dur,
		"pace", *livePace, "work", *liveWork)
	if *httpAddr != "" {
		// Bind before the run so the banner shows the real port when
		// -http asks for ":0".
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		cfg.HTTPListener = ln
		fmt.Fprintf(os.Stderr, "serving admin endpoints on http://%s/ (metrics, healthz, debug/pprof)\n", ln.Addr())
	}
	res, err := laps.Run(cfg)
	if err != nil {
		return err
	}
	l := res.Live
	fmt.Printf("live run: %d workers, scheduler %s, wall %v\n",
		*liveWorkers, res.Scheduler, l.Elapsed.Round(time.Millisecond))
	if l.Dispatchers > 0 {
		fmt.Printf("  sharded: dispatchers=%d snapshots=%d\n", l.Dispatchers, l.Snapshots)
	}
	fmt.Printf("  generated=%d dispatched=%d processed=%d dropped=%d (%.2f%% loss)\n",
		res.Generated, l.Dispatched, l.Processed, l.Dropped,
		100*float64(l.Dropped)/float64(max(l.Dispatched, 1)))
	fmt.Printf("  migrations=%d fenced=%d out-of-order=%d max-fence-hold=%v throughput=%.0f pps\n",
		l.Migrations, l.Fenced, l.OutOfOrder, l.MaxFenceHold.Round(time.Microsecond),
		float64(l.Processed)/l.Elapsed.Seconds())
	if *flowBudget > 0 {
		fmt.Printf("  memory: budget=%d budget-hits=%d estimated-ooo=%d witness_level=%d\n",
			*flowBudget, l.FlowBudgetHits, l.EstimatedOOO, l.WitnessLevel)
	}
	if cfg.Faults != nil || l.WorkerDeaths > 0 {
		fmt.Printf("  faults: stalls=%d deaths=%d reinjected=%d recovered-flows=%d forced=%d stranded=%d max-detect=%v\n",
			l.WorkerStalls, l.WorkerDeaths, l.Reinjected, l.Recovered,
			l.Forced, l.Stranded, l.MaxDetect.Round(time.Millisecond))
	}
	for _, w := range l.Workers {
		status := ""
		if w.Dead {
			status = " [dead]"
		}
		fmt.Printf("  worker %d: processed=%d dropped=%d batches=%d%s\n",
			w.ID, w.Processed, w.Dropped, w.Batches, status)
	}
	if res.LapsStats != nil {
		s := res.LapsStats
		fmt.Printf("  laps: migrations=%d core-requests=%d grants=%d surplus-marks=%d\n",
			s.Migrations, s.CoreRequests, s.CoreGrants, s.SurplusMarks)
	}
	return nil
}

// parseFaultPlan parses the -live-faults spec: comma-separated entries
// of the form kind:worker@after[:duration] — e.g. "stall:1@2000:500ms",
// "kill:3@1500", "slow:2@100:1s" — or "rand:SEED" to splice in a
// generated plan (two stalls plus one kill; worker 0 always survives).
func parseFaultPlan(spec string, workers int) (*laps.FaultPlan, error) {
	plan := &laps.FaultPlan{}
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.SplitN(ent, ":", 3)
		if parts[0] == "rand" {
			if len(parts) != 2 {
				return nil, fmt.Errorf("-live-faults: want rand:SEED, got %q", ent)
			}
			rseed, err := strconv.ParseUint(parts[1], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("-live-faults: bad seed in %q: %v", ent, err)
			}
			p := laps.RandomFaultPlan(rseed, workers, 2, 1, 5000, 500*time.Millisecond)
			plan.Faults = append(plan.Faults, p.Faults...)
			continue
		}
		var kind laps.FaultKind
		switch parts[0] {
		case "stall":
			kind = laps.FaultStall
		case "slow":
			kind = laps.FaultSlow
		case "kill":
			kind = laps.FaultKill
		default:
			return nil, fmt.Errorf("-live-faults: unknown kind %q in %q (want stall, slow, kill or rand)", parts[0], ent)
		}
		if len(parts) < 2 {
			return nil, fmt.Errorf("-live-faults: %q: want kind:worker@after[:duration]", ent)
		}
		wa := strings.SplitN(parts[1], "@", 2)
		if len(wa) != 2 {
			return nil, fmt.Errorf("-live-faults: %q: want kind:worker@after[:duration]", ent)
		}
		w, err := strconv.Atoi(wa[0])
		if err != nil {
			return nil, fmt.Errorf("-live-faults: bad worker in %q: %v", ent, err)
		}
		after, err := strconv.ParseUint(wa[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-live-faults: bad trigger count in %q: %v", ent, err)
		}
		f := laps.Fault{Worker: w, After: after, Kind: kind}
		if len(parts) == 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("-live-faults: bad duration in %q: %v", ent, err)
			}
			f.Duration = d
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, fmt.Errorf("-live-faults: empty spec")
	}
	return plan, nil
}

// findScenario resolves a Table VI scenario by name.
func findScenario(name string) (exp.Scenario, error) {
	for _, sc := range exp.Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return exp.Scenario{}, fmt.Errorf("unknown scenario %q (want T1..T8)", name)
}

// runTraced executes one instrumented scenario and writes the requested
// telemetry artifacts.
func runTraced(opts exp.Options) error {
	rec := obs.NewRecorder(0)
	var interval sim.Time
	if *metricsPath != "" {
		// validateFlags already rejected a non-positive -metrics-interval.
		interval = sim.Time(metricsInt.Nanoseconds())
	}
	slog.Debug("telemetry run", "scenario", *scenario, "duration", *dur, "interval", interval)

	start := time.Now()
	res, err := exp.Traced(opts, *scenario, rec, interval)
	if err != nil {
		return err
	}
	slog.Debug("telemetry run done", "elapsed", time.Since(start).Round(time.Millisecond),
		"events", rec.Total(), "overwritten", rec.Overwritten())

	writeEvents := func(path string, mk func(io.Writer) obs.Sink) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		s := mk(f)
		for _, e := range rec.Events() {
			if err := s.Write(e); err != nil {
				return err
			}
		}
		return s.Close()
	}
	if *tracePath != "" {
		if err := writeEvents(*tracePath, func(w io.Writer) obs.Sink { return obs.NewJSONLSink(w) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", *tracePath, rec.Len())
	}
	if *chromePath != "" {
		if err := writeEvents(*chromePath, func(w io.Writer) obs.Sink { return obs.NewChromeTraceSink(w) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", *chromePath, rec.Len())
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		if err := res.Series.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", *metricsPath, res.Series.Len())
	}

	m := res.Metrics
	fmt.Printf("scenario %s: %d events captured (%d lost to ring overwrite)\n",
		res.Scenario, rec.Total(), rec.Overwritten())
	fmt.Printf("  migrations=%d map-splits=%d map-merges=%d core-steals=%d surplus-marks=%d\n",
		rec.Count(obs.EvFlowMigration), rec.Count(obs.EvMapSplit), rec.Count(obs.EvMapMerge),
		rec.Count(obs.EvCoreSteal), rec.Count(obs.EvSurplusMark))
	fmt.Printf("  afc-promotes=%d drops=%d ooo-departs=%d\n",
		rec.Count(obs.EvAFCPromote), rec.Count(obs.EvDrop), rec.Count(obs.EvOOODepart))
	fmt.Printf("  metrics: injected=%d dropped=%d completed=%d ooo=%d migrations=%d\n",
		m.Injected, m.Dropped, m.Completed, m.OutOfOrder, m.Migrations)
	return nil
}

// runTables executes the named table experiments (the default mode).
func runTables(opts exp.Options) error {
	start := time.Now()
	var tables []exp.Table
	if *name == "all" {
		tables = exp.RunAll(opts)
	} else {
		var err error
		tables, err = exp.Run(*name, opts)
		if err != nil {
			return err
		}
	}
	slog.Debug("experiments done", "tables", len(tables), "elapsed", time.Since(start).Round(time.Millisecond))
	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	for i := range tables {
		switch {
		case *jsonOut:
			if err := tables[i].JSON(out); err != nil {
				return err
			}
		case *csv:
			tables[i].CSV(out)
			fmt.Fprintln(out)
		default:
			tables[i].Fprint(out)
		}
	}
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
