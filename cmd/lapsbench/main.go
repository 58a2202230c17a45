// Command lapsbench is the repository's benchmark: one command, six
// workloads, the end-to-end metrics an operator or a researcher sees and
// a per-layer ladder under them. README.md explains every choice;
// BENCHMARK.json at the repository root declares the names, units,
// directions and regression bounds this program prints.
//
// With no -workload it runs all six, each in a child process of its
// own. With -workload it runs that one and ends its standard output
// with one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	stdrt "runtime"
	"strings"
	"time"

	"laps/internal/stats"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	reps      int
	scale     float64
	trace     int
	jsonPath  string
	out       string
	selfcheck bool
}

// Trace modes: what a workload run measures and puts in its result line.
const (
	traceBoth = -1 // timed repetitions, then one traced repetition and the rungs (the default)
	traceOff  = 0  // timed repetitions only: the end-to-end metrics
	traceOnly = 1  // timed and traced repetitions in turn, then the rungs: the per-layer metrics
)

const (
	setupRuns  = 3               // set-up is run this many times; setup_s is the median
	rungBudget = 2 * time.Second // what --trace 1 keeps back from -seconds for the rungs
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all six, a child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "selects the trace presets and the churn stream; golden.json covers seed 1")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure for about this long per workload instead of counting -reps")
	flag.IntVar(&cfg.reps, "reps", 5, "timed repetitions per workload (after one warm-up)")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every repetition's packet count")
	flag.IntVar(&cfg.trace, "trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	flag.StringVar(&cfg.jsonPath, "json", "", "also write all results to this file as JSON")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "traces"), "directory for the Chrome-trace files")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run two complete sets and compare their medians with the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seed == 0 || cfg.scale <= 0 || cfg.reps < 1 || cfg.trace < traceBoth || cfg.trace > traceOnly {
		fmt.Fprintln(os.Stderr, "lapsbench: bad arguments (seed >= 1, scale > 0, reps >= 1, trace in -1..1, no positional arguments)")
		os.Exit(2)
	}
	// min(NumCPU, 4): four workers never get more than four CPUs.
	if stdrt.NumCPU() > liveWorkers {
		stdrt.GOMAXPROCS(liveWorkers)
	}
	var err error
	switch {
	case cfg.selfcheck:
		err = selfcheck(cfg)
	case cfg.workload == "":
		_, err = runAll(cfg, os.Stdout)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lapsbench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result
// line last. An incorrect run still prints the line, then exits 1.
func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res, err := measure(w, cfg, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", w.name)
	}
	return nil
}

// measure runs set-up, a warm-up, the repetitions the trace mode asks
// for and (when tracing) the rungs, and reduces them to a result.
func measure(w *workload, cfg config, log io.Writer) (*result, error) {
	fmt.Fprintf(log, "== %s  seed=%d scale=%g gomaxprocs=%d nproc=%d\n",
		w.name, cfg.seed, cfg.scale, stdrt.GOMAXPROCS(0), stdrt.NumCPU())
	var in *inputs
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		if in, err = w.setup(cfg.seed, cfg.scale); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace == traceOnly {
		budget -= rungBudget
	}
	var last time.Duration
	// more reports whether another round of repetitions is due: by
	// count, or — under -seconds — while the next round still fits.
	more := func(done int) bool {
		if cfg.seconds > 0 {
			return done == 0 || time.Since(start)+last < budget
		}
		return done < cfg.reps
	}
	// run does one repetition; a paced one whose generator ran late is
	// re-run once and then kept apart as invalid.
	var invalid int
	run := func(traced bool) (*repOut, error) {
		for try := 0; ; try++ {
			o, err := w.rep(in, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if !w.paced() || stats.Percentile(o.late, 99) <= lateLimit {
				return o, nil
			}
			if try == 1 {
				invalid++
				return nil, nil
			}
		}
	}

	if _, err := w.rep(in, false); err != nil { // warm-up
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	var timed, traced []*repOut
	for round := 0; more(round); round++ {
		t0 := time.Now()
		o, err := run(false)
		if err != nil {
			return nil, err
		}
		if o != nil {
			timed = append(timed, o)
		}
		if cfg.trace == traceOnly {
			if o, err = run(true); err != nil {
				return nil, err
			}
			if o != nil {
				traced = append(traced, o)
			}
		}
		last = time.Since(t0)
	}
	if cfg.trace == traceBoth {
		o, err := run(true)
		if err != nil {
			return nil, err
		}
		if o != nil {
			traced = append(traced, o)
		}
	}
	if len(timed) == 0 || (cfg.trace != traceOff && len(traced) == 0) {
		return nil, fmt.Errorf("%s: %w", w.name, errAllLate)
	}

	e2e, always := reduceTimed(timed)
	e2e["setup_s"] = median(setups)
	res := &result{Correct: true}
	for _, o := range append(append([]*repOut(nil), timed...), traced...) {
		res.Attempted += o.offered
		res.Failed += o.failed
		for _, v := range o.violations {
			res.Correct = false
			fmt.Fprintf(log, "  VIOLATION: %s\n", v)
		}
	}
	if msg := checkGolden(cfg, timed, traced); msg != "" {
		res.Correct = false
		fmt.Fprintf(log, "  VIOLATION: %s\n", msg)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	printMetrics(log, fmt.Sprintf("end to end (%d timed repetitions, %d invalid)", len(timed), invalid), endToEnd, e2e, timed)
	layer := always
	if cfg.trace != traceOff {
		for k, v := range reduceTraced(traced, e2e["pps"]) {
			layer[k] = v
		}
		for k, v := range runRungs(in, w.next) {
			layer[k] = v
		}
		addLadder(w, layer, e2e["cpu_ns_per_pkt"])
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.out, w.name+".trace.json")
		if err := traced[len(traced)-1].writeTrace(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "  trace: %s\n", path)
		printMetrics(log, fmt.Sprintf("per layer (%d traced repetitions)", len(traced)), perLayer, layer, nil)
	} else {
		printMetrics(log, "unbounded end-to-end figures", unbounded, layer, nil)
	}

	switch cfg.trace {
	case traceOff:
		res.Metrics = e2e.export(endToEnd)
	case traceOnly:
		res.Metrics = layer.export(perLayer)
	default:
		res.Metrics = e2e.export(endToEnd)
		for k, m := range layer.export(perLayer) {
			res.Metrics[k] = m
		}
	}
	return res, nil
}

var errAllLate = fmt.Errorf("every repetition was invalid: the pacer ran more than %.0f µs late at p99 (a busy host?)", lateLimit)

// reduceTimed turns the timed repetitions into the end-to-end metrics
// (medians over repetitions) and the always-computed ppm figures (sums
// over repetitions).
func reduceTimed(reps []*repOut) (e2e, always values) {
	var pps, cpu, p50, p99, heap []float64
	var offered, retired, ooo, est uint64
	samples := 0
	for _, o := range reps {
		pps = append(pps, o.pps())
		cpu = append(cpu, perPkt(o.cpu, int(o.retired)))
		heap = append(heap, o.heapMB)
		offered += o.offered
		retired += o.retired
		if s := o.simOut; s != nil {
			p50 = append(p50, simQuantile(&s.m, 0.50))
			p99 = append(p99, simQuantile(&s.m, 0.99))
			continue
		}
		p50 = append(p50, stats.Percentile(o.lat, 50))
		p99 = append(p99, stats.Percentile(o.lat, 99))
		samples += len(o.lat)
		ooo += o.res.OutOfOrder - o.res.EstimatedOOO
		est += o.res.EstimatedOOO
	}
	e2e = values{
		"pps": median(pps), "cpu_ns_per_pkt": median(cpu),
		"latency_p99_us": median(p99), "heap_mb": median(heap),
	}
	always = values{"latency_p50_us": median(p50), "latency_samples": float64(samples)}
	if s := reps[0].simOut; s != nil {
		c := s.counts
		always["sim_drop_ppm"] = ppm(c.Dropped, c.Injected)
		always["sim_ooo_ppm"] = ppm(c.OutOfOrder, c.Completed)
		always["sim_cold_ppm"] = ppm(c.ColdCache, c.Completed)
		return e2e, always
	}
	always["loss_ppm"] = ppm(offered-retired, offered)
	always["ooo_ppm"] = ppm(ooo, retired)
	always["est_ooo_ppm"] = ppm(est, retired)
	return e2e, always
}

// printMetrics prints one line per metric: name, value, unit, and the
// spread over the repetitions where there is one.
func printMetrics(log io.Writer, title string, defs []metricDef, v values, reps []*repOut) {
	fmt.Fprintf(log, "  -- %s\n", title)
	for _, d := range defs {
		fmt.Fprintf(log, "  %-34s %16.4f %s\n", d.name, v[d.name], d.unit)
	}
	if len(reps) > 1 {
		var pps []float64
		for _, o := range reps {
			pps = append(pps, o.pps())
		}
		lo, hi := minMax(pps)
		fmt.Fprintf(log, "  %-34s %16.0f .. %.0f pkt/s\n", "pps min .. max", lo, hi)
	}
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares sim_t5's exact statistics with golden.json at
// the default seed and scale, and with each other at any seed: the
// simulator is deterministic, so every repetition must agree.
func checkGolden(cfg config, timed, traced []*repOut) string {
	if timed[0].simOut == nil {
		return ""
	}
	first := timed[0].simOut.counts.timed()
	for _, o := range append(append([]*repOut(nil), timed...), traced...) {
		if got := o.simOut.counts.timed(); got != first {
			return fmt.Sprintf("sim_t5 is not deterministic: %+v then %+v", first, got)
		}
	}
	if cfg.seed != 1 || cfg.scale != 1 {
		return ""
	}
	var want simCounts
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return "golden.json: " + err.Error()
	}
	if first != want.timed() {
		return fmt.Sprintf("sim_t5 differs from golden.json: got %+v, want %+v", first, want.timed())
	}
	for _, o := range traced {
		if o.simOut.counts != want {
			return fmt.Sprintf("sim_t5 differs from golden.json: got %+v, want %+v", o.simOut.counts, want)
		}
	}
	return ""
}

// runAll runs every workload in a child process of its own, one at a
// time, so no workload inherits another's heap or scheduler state.
func runAll(cfg config, log io.Writer) (map[string]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := map[string]*result{}
	var bad []string
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-reps", fmt.Sprint(cfg.reps), "-scale", fmt.Sprint(cfg.scale), "-trace", fmt.Sprint(cfg.trace), "-out", cfg.out,
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = &buf
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		res := &result{}
		if json.Unmarshal([]byte(lines[len(lines)-1]), res) != nil || res.Metrics == nil {
			io.WriteString(log, buf.String()) //nolint:errcheck // diagnostics
			return nil, fmt.Errorf("%s: no result line (%v)", w.name, runErr)
		}
		fmt.Fprintln(log, strings.Join(lines[:len(lines)-1], "\n"))
		all[w.name] = res
		if !res.Correct {
			bad = append(bad, w.name)
		}
	}
	if cfg.jsonPath != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.jsonPath, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if len(bad) > 0 {
		return all, fmt.Errorf("outputs are not correct on: %s", strings.Join(bad, ", "))
	}
	return all, nil
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var last error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			last = err
			continue
		}
		bf := &benchmarkFile{}
		if err := json.Unmarshal(b, bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return bf, nil
	}
	return nil, last
}

// selfcheck runs two complete end-to-end sets back to back and holds
// their medians against the declared bounds: the check that justifies
// the bounds, and re-justifies them on a new host.
func selfcheck(cfg config) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	cfg.trace, cfg.jsonPath = traceOff, ""
	var sets [2]map[string]*result
	for i := range sets {
		fmt.Printf("selfcheck: set %d of 2\n", i+1)
		if sets[i], err = runAll(cfg, io.Discard); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	var failed []string
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][wl.name].Metrics[m.Name].Value, sets[1][wl.name].Metrics[m.Name].Value
			// worse is how much the second set is worse than the first,
			// as a share of the first: what a regression gate would see.
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound || -worse > m.Bound {
				mark = "  DISAGREE"
				failed = append(failed, wl.name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", wl.name, m.Name, a, b, worse*100, m.Bound*100, mark)
		}
	}
	if len(failed) > 0 {
		w.Flush()
		return fmt.Errorf("two sets of the same code disagree beyond the bound on: %s", strings.Join(failed, ", "))
	}
	return nil
}
