package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeclarationsMatchBenchmarkFile pins the names, units and limits of
// BENCHMARK.json to what the program emits: later changes are judged
// against these names, so the two must not drift apart.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.name, d.unit)
		}
		if _, dup := units[d.name]; dup {
			t.Errorf("metric %q declared twice", d.name)
		}
		units[d.name] = d.unit
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("too many: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}

	var wl, wantWL, e2e, layer []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	for _, w := range workloads {
		wantWL = append(wantWL, w.name)
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: outside the allowed characters", w.name)
		}
	}
	sort.Strings(wl)
	sort.Strings(wantWL)
	if !equal(wl, wantWL) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program has %v", wl, wantWL)
	}
	setup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	if want := names(endToEnd); !equal(e2e, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program has %v", e2e, want)
	}
	if want := names(perLayer); !equal(layer, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program has %v", layer, want)
	}
}

// TestWorkloadsEmitEveryMetric runs all six workloads small and checks
// that each passes its correctness gate, emits exactly the declared
// metrics with their units, writes a loadable trace file, and that the
// ladder reconciles with cpu_ns_per_pkt.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	want := names(append(append([]metricDef(nil), endToEnd...), perLayer...))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, scale: 0.01, reps: 1, trace: traceBoth, out: t.TempDir()}
			res, err := measure(w, cfg, io.Discard)
			if errors.Is(err, errAllLate) {
				t.Skipf("pacer could not keep time at this scale on this host: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s has no unit", name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			sort.Strings(got)
			if !equal(got, want) {
				t.Errorf("emitted %v, declared %v", got, want)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
			sum := res.Metrics["ladder.sum_ns_per_pkt"].Value + res.Metrics["ladder.unexplained_ns_per_pkt"].Value
			if cpu := res.Metrics["cpu_ns_per_pkt"].Value; math.Abs(sum-cpu) > 1e-6*cpu {
				t.Errorf("ladder does not reconcile: sum + unexplained = %v, cpu_ns_per_pkt = %v", sum, cpu)
			}
			if w.live != nil {
				b, err := os.ReadFile(filepath.Join(cfg.out, w.name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
				}
			}
		})
	}
}

// TestSimQuantileInterpolates pins the continuous quantile read off the
// simulator's log2 latency histogram.
func TestSimQuantileInterpolates(t *testing.T) {
	out, err := simRep(simSetup(1, 0.01), false)
	if err != nil {
		t.Fatal(err)
	}
	m := &out.simOut.m
	p50, p99 := simQuantile(m, 0.5), simQuantile(m, 0.99)
	if !(p50 > 0 && p50 < p99) {
		t.Errorf("p50 %v, p99 %v", p50, p99)
	}
	if mean := float64(m.MeanLatency()) / 1e3; p99 < mean/4 || p50 > mean*4 {
		t.Errorf("quantiles %v/%v are far from the mean %v µs", p50, p99, mean)
	}
}
