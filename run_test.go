package laps_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"laps"
)

// liveTraffic is a two-service load that keeps LAPS busy enough to
// migrate, split maps and promote AFC entries within a few virtual ms.
func liveTraffic(seed uint64) []laps.ServiceTraffic {
	return []laps.ServiceTraffic{
		trafficFor(laps.SvcIPForward, 3, seed),
		trafficFor(laps.SvcVPNOut, 1.5, seed+101),
	}
}

func TestRunLiveSmoke(t *testing.T) {
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     3,
			Traffic:  liveTraffic(3),
		},
		Workers: 4,
		Block:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no traffic generated")
	}
	if res.Live.Dispatched != res.Generated {
		t.Fatalf("dispatched %d != generated %d", res.Live.Dispatched, res.Generated)
	}
	if res.Live.Processed != res.Live.Dispatched {
		t.Fatalf("block policy lost packets: processed %d of %d",
			res.Live.Processed, res.Live.Dispatched)
	}
	if res.Live.OutOfOrder != 0 {
		t.Fatalf("fencing let %d packets reorder", res.Live.OutOfOrder)
	}
	if res.Scheduler != "laps" || res.LapsStats == nil {
		t.Fatalf("expected LAPS run with stats, got %q (%v)", res.Scheduler, res.LapsStats)
	}
}

func TestRunLiveTelemetry(t *testing.T) {
	rec := laps.NewRecorder(0)
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     5,
			Traffic:  liveTraffic(5),
		},
		Workers:         4,
		Block:           true,
		Trace:           rec,
		MetricsInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 {
		t.Fatal("live LAPS run emitted no control-plane events")
	}
	if res.Live.Series == nil {
		t.Fatal("metrics interval set but no series")
	}
}

// TestRunLiveWithFaults drives fault injection through the public API:
// a stall past the window plus a kill, under backpressure — nothing may
// drop or reorder, and the recovery counters must surface in EngineStats.
func TestRunLiveWithFaults(t *testing.T) {
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     3,
			Traffic:  liveTraffic(3),
		},
		Workers: 4,
		Block:   true,
		Faults: &laps.FaultPlan{Faults: []laps.Fault{
			{Worker: 1, After: 500, Kind: laps.FaultStall, Duration: 600 * time.Millisecond},
			{Worker: 3, After: 800, Kind: laps.FaultKill},
		}},
		DetectWindow: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.Processed != res.Live.Dispatched || res.Live.Dropped != 0 {
		t.Fatalf("faulted block run lost packets: processed %d of %d, dropped %d",
			res.Live.Processed, res.Live.Dispatched, res.Live.Dropped)
	}
	if res.Live.OutOfOrder != 0 {
		t.Fatalf("recovery reordered %d packets", res.Live.OutOfOrder)
	}
	if res.Live.WorkerDeaths == 0 {
		t.Fatal("injected kill never quarantined")
	}
	if !res.Live.Workers[3].Dead {
		t.Fatal("killed worker 3 not reported dead")
	}
}

// TestRunLiveSharded drives the sharded data plane through the public
// API: flow-affine ingress shards resolving against published LAPS
// snapshots must lose nothing and reorder nothing under backpressure.
func TestRunLiveSharded(t *testing.T) {
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     3,
			Traffic:  liveTraffic(3),
		},
		Workers:     4,
		Dispatchers: 2,
		Block:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.Dispatchers != 2 {
		t.Fatalf("Dispatchers = %d, want 2", res.Live.Dispatchers)
	}
	if res.Live.Dispatched != res.Generated {
		t.Fatalf("dispatched %d != generated %d", res.Live.Dispatched, res.Generated)
	}
	if res.Live.Processed != res.Live.Dispatched || res.Live.Dropped != 0 {
		t.Fatalf("sharded block run lost packets: processed %d of %d, dropped %d",
			res.Live.Processed, res.Live.Dispatched, res.Live.Dropped)
	}
	if res.Live.OutOfOrder != 0 {
		t.Fatalf("sharded fencing let %d packets reorder", res.Live.OutOfOrder)
	}
	if res.Live.Snapshots == 0 {
		t.Fatal("control plane never published a forwarding snapshot")
	}
	if res.Scheduler != "laps" || res.LapsStats == nil {
		t.Fatalf("expected LAPS run with stats, got %q (%v)", res.Scheduler, res.LapsStats)
	}
}

// TestRunShardedConformance pins the cross-shard ordering contract at
// the API level: the same StackConfig at Dispatchers=1 and 4 retires
// every packet with zero reordering in both runs.
func TestRunShardedConformance(t *testing.T) {
	run := func(disp int) *laps.RunResult {
		res, err := laps.Run(laps.RunConfig{
			StackConfig: laps.StackConfig{
				Duration: 2 * laps.Millisecond,
				Seed:     11,
				Traffic:  liveTraffic(11),
			},
			Workers:     4,
			Dispatchers: disp,
			Block:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if one.Generated != four.Generated {
		t.Fatalf("arrival sequence diverged: %d vs %d packets", one.Generated, four.Generated)
	}
	for _, r := range []*laps.RunResult{one, four} {
		if r.Live.Processed != r.Live.Dispatched || r.Live.Dropped != 0 {
			t.Fatalf("dispatchers=%d lost packets: %+v", r.Live.Dispatchers, r.Live)
		}
		if r.Live.OutOfOrder != 0 {
			t.Fatalf("dispatchers=%d reordered %d packets", r.Live.Dispatchers, r.Live.OutOfOrder)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := laps.Run(laps.RunConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{Scheduler: laps.FCFS, Traffic: liveTraffic(1)},
	}); err == nil {
		t.Fatal("FCFS accepted in live mode")
	}
	bad := laps.SimConfig{StackConfig: laps.StackConfig{Traffic: liveTraffic(1)}, Cores: 8}
	if _, err := laps.Run(laps.RunConfig{Workers: 4, Shadow: &bad}); err == nil {
		t.Fatal("shadow mode accepted Workers != Shadow.Cores")
	}
	shadow := laps.SimConfig{StackConfig: laps.StackConfig{Traffic: liveTraffic(1)}, Cores: 4}
	faults := &laps.FaultPlan{Faults: []laps.Fault{{Worker: 1, Kind: laps.FaultKill}}}
	if _, err := laps.Run(laps.RunConfig{Shadow: &shadow, Faults: faults}); err == nil {
		t.Fatal("shadow mode accepted fault injection")
	}
	if _, err := laps.Run(laps.RunConfig{Shadow: &shadow, Dispatchers: 2}); err == nil {
		t.Fatal("shadow mode accepted sharded dispatch")
	}
	if _, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{Traffic: liveTraffic(1)},
		Dispatchers: -1,
	}); err == nil {
		t.Fatal("negative Dispatchers accepted")
	}
	if _, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{Scheduler: laps.AFS, Traffic: liveTraffic(1)},
		Dispatchers: 2,
	}); err == nil {
		t.Fatal("sharded dispatch accepted a scheduler with no forwarding snapshots")
	}
	// 100 µs is under one emulated WorkSpin batch (32 packets, up to
	// 10.63 µs each): the monitor would quarantine healthy workers.
	if _, err := laps.Run(laps.RunConfig{
		StackConfig:  laps.StackConfig{Traffic: liveTraffic(1)},
		Work:         laps.WorkSpin,
		DetectWindow: 100 * time.Microsecond,
	}); err == nil || !strings.Contains(err.Error(), "DetectWindow 100µs") {
		t.Fatalf("a DetectWindow shorter than one WorkSpin batch: got %v, want a DetectWindow error", err)
	}
}

// TestRunTrafficRejectsDuplicateService pins the trafficProfile fix:
// two Traffic entries naming the same service must be rejected, in both
// engines, instead of silently shadowing each other.
func TestRunTrafficRejectsDuplicateService(t *testing.T) {
	dup := []laps.ServiceTraffic{
		trafficFor(laps.SvcIPForward, 1, 1),
		trafficFor(laps.SvcIPForward, 2, 2),
	}
	if _, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{Traffic: dup},
	}); err == nil {
		t.Fatal("Simulate accepted duplicate service traffic")
	}
	if _, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{Traffic: dup},
	}); err == nil {
		t.Fatal("Run accepted duplicate service traffic")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing must be dispatched, nothing hangs
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Traffic:  liveTraffic(7),
		},
		Workers: 2,
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.Dispatched != 0 {
		t.Fatalf("cancelled run dispatched %d packets", res.Live.Dispatched)
	}
}

func TestRunPacedReplayTakesWallTime(t *testing.T) {
	start := time.Now()
	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 4 * laps.Millisecond,
			Seed:     9,
			Traffic:  []laps.ServiceTraffic{trafficFor(laps.SvcIPForward, 1, 9)},
		},
		Workers: 2,
		Pace:    1, // real time: 4 ms of virtual arrivals ≈ 4 ms of wall clock
		Block:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("paced 4 ms replay finished in %v", elapsed)
	}
	if res.Live.Processed == 0 {
		t.Fatal("nothing processed")
	}
}

// controlPlane filters a recorder down to the scheduler's decision
// events — the sequence the conformance check compares.
func controlPlane(rec *laps.Recorder) []laps.Event {
	var out []laps.Event
	for _, e := range rec.Events() {
		switch e.Kind {
		case laps.EvFlowMigration, laps.EvMapSplit, laps.EvMapMerge,
			laps.EvCoreSteal, laps.EvCorePark, laps.EvCoreReturn,
			laps.EvSurplusMark, laps.EvSurplusUnmark,
			laps.EvAFCPromote, laps.EvAFCDemote, laps.EvAFCInvalidate:
			out = append(out, e)
		}
	}
	return out
}

// TestRunShadowConformance replays the same synthetic trace through the
// simulator alone and through the live runtime in shadow mode, and
// asserts the scheduler-level decisions — every migration, map split
// and AFC promotion, in order, with identical timestamps and operands —
// match exactly. It also pins the live ordering invariant: with fencing
// on, mirroring the decision storm onto real goroutines reorders
// nothing.
func TestRunShadowConformance(t *testing.T) {
	mkCfg := func(rec *laps.Recorder) laps.SimConfig {
		return laps.SimConfig{
			StackConfig: laps.StackConfig{
				Duration: 4 * laps.Millisecond,
				Seed:     42,
				Traffic:  liveTraffic(42),
			},
			Cores: 8,
			Trace: rec,
		}
	}

	recSim := laps.NewRecorder(0)
	simRes, err := laps.Simulate(mkCfg(recSim))
	if err != nil {
		t.Fatal(err)
	}
	recShadow := laps.NewRecorder(0)
	shadowCfg := mkCfg(recShadow)
	runRes, err := laps.Run(laps.RunConfig{Shadow: &shadowCfg})
	if err != nil {
		t.Fatal(err)
	}

	// The scheduler's aggregate decision counters must agree.
	if simRes.LapsStats == nil || runRes.LapsStats == nil {
		t.Fatal("missing LAPS stats")
	}
	if !reflect.DeepEqual(*simRes.LapsStats, *runRes.LapsStats) {
		t.Fatalf("scheduler stats diverged:\n sim: %+v\nlive: %+v",
			*simRes.LapsStats, *runRes.LapsStats)
	}

	// The event-by-event decision sequences must be identical:
	// migrations, splits/merges, steals, AFC activity — same order,
	// same virtual timestamps, same flows and cores.
	evSim, evShadow := controlPlane(recSim), controlPlane(recShadow)
	if len(evSim) == 0 {
		t.Fatal("conformance run produced no control-plane events; widen the workload")
	}
	if len(evSim) != len(evShadow) {
		t.Fatalf("event counts diverged: sim %d, shadow %d", len(evSim), len(evShadow))
	}
	for i := range evSim {
		if evSim[i] != evShadow[i] {
			t.Fatalf("decision %d diverged:\n sim: %+v\nlive: %+v", i, evSim[i], evShadow[i])
		}
	}
	if c := recSim.Count(laps.EvFlowMigration); c == 0 {
		t.Fatal("no migrations in conformance run; the check is vacuous")
	}

	// Every scheduler decision was mirrored onto the live engine, and
	// fencing kept the live data path order-safe through all of them.
	if runRes.Live.Dispatched != simRes.Metrics.Injected {
		t.Fatalf("live saw %d packets, sim injected %d",
			runRes.Live.Dispatched, simRes.Metrics.Injected)
	}
	if runRes.Live.Processed != runRes.Live.Dispatched {
		t.Fatalf("shadow mirror lost packets: %d of %d",
			runRes.Live.Processed, runRes.Live.Dispatched)
	}
	if runRes.Live.OutOfOrder != 0 {
		t.Fatalf("live engine reordered %d packets under fencing", runRes.Live.OutOfOrder)
	}
	if runRes.Sim == nil || runRes.Sim.Metrics.Injected != simRes.Metrics.Injected {
		t.Fatal("shadow result did not carry the embedded simulation")
	}
}

// TestRunShadowDeterministic: two shadow runs of the same config agree
// with each other (the live side is scheduling-noise-free at the
// decision level even though goroutine interleavings differ).
func TestRunShadowDeterministic(t *testing.T) {
	run := func() *laps.RunResult {
		cfg := laps.SimConfig{
			StackConfig: laps.StackConfig{
				Duration: 2 * laps.Millisecond,
				Seed:     17,
				Traffic:  liveTraffic(17),
			},
			Cores: 8,
		}
		res, err := laps.Run(laps.RunConfig{Shadow: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(*a.LapsStats, *b.LapsStats) {
		t.Fatalf("shadow runs diverged:\n a: %+v\n b: %+v", *a.LapsStats, *b.LapsStats)
	}
	if a.Live.Dispatched != b.Live.Dispatched {
		t.Fatalf("dispatch counts diverged: %d vs %d", a.Live.Dispatched, b.Live.Dispatched)
	}
}

// TestRunAdminEndpoint drives the embedded admin server through the
// public API: a faulted live run scraped over HTTP mid-flight, with the
// final registry reconciled against the engine's own counters.
func TestRunAdminEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// Scrape continuously while the run is live. Pace stretches the 2 ms
	// virtual window to ~200 ms of wall clock, so scrapes land mid-flight
	// and the kill is detected during the run rather than at Stop.
	stop := make(chan struct{})
	type scrape struct {
		metrics int
		healthz int
		degr    bool
	}
	got := make(chan scrape, 1)
	go func() {
		var s scrape
		defer func() { got <- s }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == 200 && strings.Contains(string(body), "laps_dispatched_total") {
					s.metrics++
				}
			}
			if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				s.healthz++
				if resp.StatusCode == 503 && strings.Contains(string(body), `"degraded"`) {
					s.degr = true
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	res, err := laps.Run(laps.RunConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     3,
			Traffic:  liveTraffic(3),
		},
		Workers: 4,
		Block:   true,
		Pace:    0.01,
		Faults: &laps.FaultPlan{Faults: []laps.Fault{
			{Worker: 3, After: 800, Kind: laps.FaultKill},
		}},
		DetectWindow: 30 * time.Millisecond,
		HTTPListener: ln,
	})
	close(stop)
	s := <-got
	if err != nil {
		t.Fatal(err)
	}
	if res.AdminAddr != addr {
		t.Fatalf("AdminAddr %q, want listener address %q", res.AdminAddr, addr)
	}
	if s.metrics == 0 || s.healthz == 0 {
		t.Fatalf("no successful mid-run scrapes (metrics=%d healthz=%d)", s.metrics, s.healthz)
	}
	if res.Live.WorkerDeaths > 0 && !s.degr {
		t.Log("note: no degraded /healthz observed before the run ended (timing-dependent)")
	}

	// The run's registry must reconcile exactly with EngineStats.
	if res.Metrics == nil {
		t.Fatal("admin run returned no registry")
	}
	snap := res.Metrics.Snapshot()
	if got := snap["laps_dispatched_total"].(uint64); got != res.Live.Dispatched {
		t.Fatalf("laps_dispatched_total %d != Dispatched %d", got, res.Live.Dispatched)
	}
	if got := snap["laps_processed_total"].(uint64); got != res.Live.Processed {
		t.Fatalf("laps_processed_total %d != Processed %d", got, res.Live.Processed)
	}
	if got := snap["laps_worker_deaths_total"].(uint64); got != res.Live.WorkerDeaths {
		t.Fatalf("laps_worker_deaths_total %d != WorkerDeaths %d", got, res.Live.WorkerDeaths)
	}
	lat := snap["laps_packet_latency_seconds"].(map[string]any)
	if got := lat["count"].(uint64); got != res.Live.Processed {
		t.Fatalf("latency histogram has %d samples, Processed is %d", got, res.Live.Processed)
	}

	// The exposition must be well-formed: every non-comment line is
	// "name value", and the server must be gone once Run returns.
	var buf bytes.Buffer
	if err := res.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("admin server still serving after Run returned")
	}
}

// TestRunShadowRejectsTelemetry pins the mode boundary: shadow mode has
// no live clock worth scraping, so telemetry knobs are a config error.
func TestRunShadowRejectsTelemetry(t *testing.T) {
	if _, err := laps.Run(laps.RunConfig{
		Shadow:   &laps.SimConfig{},
		HTTPAddr: "127.0.0.1:0",
	}); err == nil {
		t.Fatal("shadow run with HTTPAddr did not error")
	}
	if _, err := laps.Run(laps.RunConfig{
		Shadow:  &laps.SimConfig{},
		Metrics: laps.NewMetricsRegistry(),
	}); err == nil {
		t.Fatal("shadow run with Metrics did not error")
	}
}
