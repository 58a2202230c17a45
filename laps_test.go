package laps_test

import (
	"bytes"
	"testing"

	"laps"
)

func trafficFor(svc laps.ServiceID, mpps float64, seed uint64) laps.ServiceTraffic {
	return laps.ServiceTraffic{
		Service: svc,
		Params:  laps.RateParams{A: mpps},
		Trace: laps.NewTrace(laps.TraceConfig{
			Name: "t", Flows: 2000, Skew: 1.1, Seed: seed,
		}),
	}
}

func TestSimulateRequiresTraffic(t *testing.T) {
	if _, err := laps.Simulate(laps.SimConfig{}); err == nil {
		t.Fatal("empty config did not error")
	}
}

func TestSimulateRejectsBadService(t *testing.T) {
	_, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{Traffic: []laps.ServiceTraffic{trafficFor(laps.ServiceID(7), 1, 1)}},
	})
	if err == nil {
		t.Fatal("service ID 7 accepted")
	}
	_, err = laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{Traffic: []laps.ServiceTraffic{{Service: laps.SvcIPForward}}},
	})
	if err == nil {
		t.Fatal("nil trace accepted")
	}
	_, err = laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{
			Scheduler: "bogus",
			Traffic:   []laps.ServiceTraffic{trafficFor(laps.SvcIPForward, 1, 1)},
		},
	})
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestSimulateAllSchedulers(t *testing.T) {
	for _, kind := range []laps.SchedulerKind{laps.LAPS, laps.FCFS, laps.AFS, laps.HashOnly, laps.Oracle} {
		res, err := laps.Simulate(laps.SimConfig{
			StackConfig: laps.StackConfig{
				Scheduler: kind,
				Duration:  2 * laps.Millisecond,
				Traffic:   []laps.ServiceTraffic{trafficFor(laps.SvcIPForward, 2, 3)},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Generated == 0 || res.Metrics.Completed == 0 {
			t.Fatalf("%s: no traffic flowed: %+v", kind, res.Metrics)
		}
		m := res.Metrics
		if m.Enqueued+m.Dropped != m.Injected || m.Completed != m.Enqueued {
			t.Fatalf("%s: conservation violated: %+v", kind, m)
		}
		if res.Generated != m.Injected {
			t.Fatalf("%s: generated %d != injected %d", kind, res.Generated, m.Injected)
		}
		if kind == laps.LAPS && res.LapsStats == nil {
			t.Fatal("LAPS run missing scheduler stats")
		}
		if kind != laps.LAPS && res.LapsStats != nil {
			t.Fatalf("%s: unexpected LAPS stats", kind)
		}
	}
}

func TestSimulateCustomScheduler(t *testing.T) {
	res, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{
			Custom:   laps.NewOracleScheduler(4),
			Duration: laps.Millisecond,
			Traffic:  []laps.ServiceTraffic{trafficFor(laps.SvcIPForward, 1, 1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "oracle-top4" {
		t.Fatalf("scheduler = %q", res.Scheduler)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() laps.Metrics {
		res, err := laps.Simulate(laps.SimConfig{
			StackConfig: laps.StackConfig{
				Duration: 2 * laps.Millisecond,
				Seed:     9,
				Traffic: []laps.ServiceTraffic{
					trafficFor(laps.SvcIPForward, 2, 1),
					trafficFor(laps.SvcMalwareScan, 0.3, 2),
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	if run() != run() {
		t.Fatal("identical Simulate calls diverged")
	}
}

func TestDetectorFacade(t *testing.T) {
	det := laps.NewDetector(laps.DetectorConfig{AFCSize: 8, AnnexSize: 64, PromoteThreshold: 2})
	truth := laps.NewExactCounter()
	src := laps.NewTrace(laps.TraceConfig{Name: "t", Flows: 500, Skew: 1.3, Seed: 4})
	for i := 0; i < 50000; i++ {
		rec, _ := src.Next()
		det.Observe(rec.Flow)
		truth.Observe(rec.Flow)
	}
	acc := laps.EvaluateDetector(det.Aggressive(), truth, 8)
	if acc.Detected == 0 {
		t.Fatal("detector found nothing")
	}
	if acc.Recall < 0.5 {
		t.Fatalf("recall %.2f on an easy Zipf trace", acc.Recall)
	}
}

func TestTracePresetsAndPcapFacade(t *testing.T) {
	src := laps.CAIDATrace(1)
	var recs []laps.TimedRecord
	for i := 0; i < 200; i++ {
		rec, ok := src.Next()
		if !ok {
			t.Fatal("preset exhausted")
		}
		recs = append(recs, laps.TimedRecord{Record: rec, TS: laps.Time(i) * laps.Microsecond})
	}
	var buf bytes.Buffer
	if err := laps.WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := laps.ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("pcap round trip %d != %d", len(got), len(recs))
	}
	// Replay them as a source again.
	var plain []laps.TraceRecord
	for _, r := range got {
		plain = append(plain, r.Record)
	}
	rp := laps.ReplayTrace("replay", plain, false)
	n := 0
	for {
		if _, ok := rp.Next(); !ok {
			break
		}
		n++
	}
	if n != len(plain) {
		t.Fatalf("replay yielded %d records", n)
	}
	if laps.AucklandTrace(1).Name() == "" {
		t.Fatal("auckland preset unnamed")
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	names := laps.Experiments()
	if len(names) == 0 {
		t.Fatal("no experiments registered")
	}
	tables, err := laps.RunExperiment("tab4", laps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 8 {
		t.Fatalf("tab4 returned %v", tables)
	}
	if _, err := laps.RunExperiment("missing", laps.Options{}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestSchedulerFacade(t *testing.T) {
	s := laps.NewScheduler(laps.SchedulerConfig{TotalCores: 8, Services: 2})
	if s.Name() != "laps" {
		t.Fatal("scheduler name")
	}
	if got := len(s.CoresOf(0)); got != 4 {
		t.Fatalf("service 0 cores = %d", got)
	}
}

func TestSimulateLatencyHistograms(t *testing.T) {
	res, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{
			Duration: 2 * laps.Millisecond,
			Seed:     6,
			Traffic: []laps.ServiceTraffic{{
				Service: laps.SvcIPForward,
				Params:  laps.RateParams{A: 3},
				Trace:   laps.CAIDATrace(1),
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	var samples uint64
	for _, b := range m.Latency[laps.SvcIPForward].Buckets() {
		samples += b.Count
	}
	if samples != m.Completed {
		t.Fatalf("latency samples %d != completed %d", samples, m.Completed)
	}
	mean := m.LatencyMean(laps.SvcIPForward)
	p99 := m.LatencyP99(laps.SvcIPForward)
	if mean < 500 { // cannot be below the 0.5us service time
		t.Fatalf("mean latency %v below service time", mean)
	}
	if p99 < mean {
		t.Fatalf("p99 %v below mean %v", p99, mean)
	}
}
