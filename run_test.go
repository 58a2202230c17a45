package laps_test

import (
	"bytes"
	"context"
	"fmt"
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

// TestRunHonoursStackSeed pins StackConfig.Seed reaching live runs on
// both owners. The trace seeds stay fixed, so only the arrival seed
// differs between runs; a RunConfig field shadowing it once pinned
// every live run to seed 1.
func TestRunHonoursStackSeed(t *testing.T) {
	for _, disp := range []int{0, 2} {
		t.Run(fmt.Sprintf("dispatchers=%d", disp), func(t *testing.T) {
			generated := func(seed uint64) uint64 {
				res, err := laps.Run(laps.RunConfig{
					StackConfig: laps.StackConfig{
						Duration: 2 * laps.Millisecond,
						Seed:     seed,
						Traffic:  liveTraffic(3),
					},
					Workers:     4,
					Dispatchers: disp,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Generated
			}
			one, seven, again := generated(1), generated(7), generated(7)
			if one == seven {
				t.Errorf("seeds 1 and 7 both generated %d packets: StackConfig.Seed ignored", one)
			}
			if seven != again {
				t.Errorf("seed 7 generated %d then %d packets", seven, again)
			}
		})
	}
}

// TestConfigsDoNotShadowStack: a direct field of RunConfig or SimConfig
// named like a StackConfig field hides the embedded one from callers
// who set it through the StackConfig, as RunConfig.Seed once did.
func TestConfigsDoNotShadowStack(t *testing.T) {
	stack := reflect.TypeOf(laps.StackConfig{})
	for _, typ := range []reflect.Type{reflect.TypeOf(laps.RunConfig{}), reflect.TypeOf(laps.SimConfig{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := stack.FieldByName(f.Name); ok && !f.Anonymous {
				t.Errorf("%s.%s shadows StackConfig.%s", typ.Name(), f.Name, f.Name)
			}
		}
	}
}

// fakeConn and fakeListener panic on any method call: Run must reject
// every config below before it reads a socket or serves a listener.
type (
	fakeConn     struct{ net.PacketConn }
	fakeListener struct{ net.Listener }
)

// runRejection is one config laps.Run must refuse, with the message it
// must refuse it by.
type runRejection struct {
	name string
	cfg  laps.RunConfig
	want string
}

// checkRunRejections runs each case as a subtest. A live config gets a
// fakeListener so that no case binds the default admin address.
func checkRunRejections(t *testing.T, cases []runRejection) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Shadow == nil {
				tc.cfg.HTTPListener = fakeListener{}
			}
			_, err := laps.Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// shadowOf is a shadow config that would run on its own.
func shadowOf(cores int) *laps.SimConfig {
	return &laps.SimConfig{StackConfig: laps.StackConfig{Traffic: liveTraffic(1)}, Cores: cores}
}

// TestRunValidation pins the config-time rejections outside ingress and
// live telemetry, each by its own message: mode boundaries (shadow vs
// faults and sharding), domain checks, and the engine's own checks
// reached through Run.
func TestRunValidation(t *testing.T) {
	traffic := laps.StackConfig{Traffic: liveTraffic(1)}
	checkRunRejections(t, []runRejection{
		{"empty config", laps.RunConfig{}, "need at least one Traffic entry"},
		{"FCFS in live mode", laps.RunConfig{
			StackConfig: laps.StackConfig{Scheduler: laps.FCFS, Traffic: liveTraffic(1)},
		}, "needs the simulator's shared queue"},
		{"negative dispatchers", laps.RunConfig{StackConfig: traffic, Dispatchers: -1}, "Dispatchers must be >= 0"},
		{"sharded without snapshots", laps.RunConfig{
			StackConfig: laps.StackConfig{Scheduler: laps.AFS, Traffic: liveTraffic(1)},
			Dispatchers: 2,
		}, "cannot publish forwarding snapshots"},
		// 100 µs is under one emulated WorkSpin batch (32 packets, up to
		// 10.63 µs each): the monitor would quarantine healthy workers.
		{"detect window under one batch", laps.RunConfig{
			StackConfig:  traffic,
			Work:         laps.WorkSpin,
			DetectWindow: 100 * time.Microsecond,
		}, "DetectWindow 100µs"},
		{"shadow workers mismatch", laps.RunConfig{Workers: 4, Shadow: shadowOf(8)}, "Workers == Shadow.Cores (8), got 4"},
		{"shadow with faults", laps.RunConfig{
			Shadow: shadowOf(4),
			Faults: &laps.FaultPlan{Faults: []laps.Fault{{Worker: 1, Kind: laps.FaultKill}}},
		}, "fault injection is incompatible with shadow mode"},
		{"shadow with dispatchers", laps.RunConfig{Shadow: shadowOf(4), Dispatchers: 2}, "Dispatchers is incompatible with shadow mode"},
		{"FCFS in shadow mode", laps.RunConfig{Shadow: &laps.SimConfig{
			StackConfig: laps.StackConfig{Scheduler: laps.FCFS, Traffic: liveTraffic(1)},
		}}, "no per-packet decisions to mirror"},
	})
}

// TestRunShadowRejectsTelemetry: a shadow run has no live packets to
// measure, so an admin listener or a metrics registry is refused.
func TestRunShadowRejectsTelemetry(t *testing.T) {
	checkRunRejections(t, []runRejection{
		{"shadow with admin listener", laps.RunConfig{Shadow: shadowOf(4), HTTPListener: fakeListener{}}, "live telemetry"},
		{"shadow with metrics", laps.RunConfig{Shadow: shadowOf(4), Metrics: laps.NewMetricsRegistry()}, "live telemetry"},
	})
}

// TestRunIngressValidation pins the ingress rejections: the mutual
// exclusions with Traffic, Pace and shadow mode, the termination
// requirement and the socket requirement.
func TestRunIngressValidation(t *testing.T) {
	conns := []net.PacketConn{fakeConn{}}
	checkRunRejections(t, []runRejection{
		{"negative pace", laps.RunConfig{Pace: -1}, "Pace must be >= 0"},
		{"ingress in shadow mode", laps.RunConfig{
			Ingress: &laps.IngressConfig{Conns: conns},
			Shadow:  shadowOf(4),
		}, "Ingress is incompatible with shadow mode"},
		{"ingress with traffic", laps.RunConfig{
			StackConfig: laps.StackConfig{Traffic: []laps.ServiceTraffic{{}}},
			Ingress:     &laps.IngressConfig{Conns: conns},
		}, "mutually exclusive"},
		{"ingress with pace", laps.RunConfig{Pace: 1, Ingress: &laps.IngressConfig{Conns: conns}}, "wall clock"},
		{"ingress without end", laps.RunConfig{Ingress: &laps.IngressConfig{Conns: conns}}, "Duration or a cancellable Context"},
		{"ingress without socket", laps.RunConfig{
			Context: context.Background(),
			Ingress: &laps.IngressConfig{},
		}, "at least one socket in Conns"},
		{"ingress without Conns", laps.RunConfig{
			Context: context.Background(),
			Ingress: &laps.IngressConfig{Conns: []net.PacketConn{}},
		}, "at least one socket in Conns"},
	})
}

// TestRunTrafficRejectsDuplicateService pins newStack's Traffic check:
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
