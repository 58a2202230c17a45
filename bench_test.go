// Benchmarks regenerating the paper's evaluation artefacts (one bench
// per table/figure; see DESIGN.md §4) plus the §III-G critical-path
// microbenchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benches use reduced windows/packet counts so the full suite
// completes in minutes; the lapsim CLI runs the full-size versions.
package laps_test

import (
	"io"
	"testing"

	"laps"
	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/exp"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// benchOpts are scaled-down experiment options for benchmarking.
func benchOpts() exp.Options {
	return exp.Options{
		Duration:      3 * sim.Millisecond,
		ModelSeconds:  60,
		Cores:         16,
		Seed:          1,
		Workers:       1, // serialise inside the bench for stable numbers
		StreamPackets: 50000,
	}
}

// --- Section III-G: scheduler critical path -------------------------

// BenchmarkCRC16 measures the hash stage of the critical path: the
// fixed-key FlowHash (13 unrolled table steps over the 5-tuple, no
// intermediate encoding). SetBytes makes `go test -bench` report it as
// MB/s over the 13-byte key.
func BenchmarkCRC16(b *testing.B) {
	k := packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 80, DstPort: 8080, Proto: 6}
	b.Run("flowhash", func(b *testing.B) {
		b.SetBytes(13)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkU16 = crc.FlowHash(k)
		}
	})
}

var sinkU16 uint16

// BenchmarkSchedulerDecision measures the full LAPS decision —
// hash → map table → imbalance check — i.e. the paper's claim that the
// design sustains >100M decisions/sec (§III-G).
func BenchmarkSchedulerDecision(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() npsim.Scheduler
	}{
		{"laps", func() npsim.Scheduler {
			return core.New(core.Config{TotalCores: 16, Services: 4, AFD: afd.Config{Seed: 1}})
		}},
		{"laps-sampled", func() npsim.Scheduler {
			return core.New(core.Config{TotalCores: 16, Services: 4,
				AFD: afd.Config{Seed: 1, SampleProb: 0.001}})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.mk()
			v := &benchView{cores: 16, qcap: 32}
			pkts := make([]*packet.Packet, 1024)
			src := trace.CAIDALike(1)
			for i := range pkts {
				rec, _ := src.Next()
				pkts[i] = &packet.Packet{Flow: rec.Flow, Service: packet.ServiceID(i % 4), Size: rec.Size}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkInt = s.Target(pkts[i&1023], v)
			}
		})
	}
}

var sinkInt int

// BenchmarkSchedulerTracingDisabled/Enabled quantify the telemetry tax
// on the decision hot path: a nil *obs.Recorder must cost one
// predictable branch per emit site, and an attached ring recorder only
// a handful of ns more (no allocation either way).
func BenchmarkSchedulerTracingDisabled(b *testing.B) { benchSchedulerTracing(b, nil) }

func BenchmarkSchedulerTracingEnabled(b *testing.B) {
	benchSchedulerTracing(b, obs.NewRecorder(1<<12))
}

func benchSchedulerTracing(b *testing.B, rec *obs.Recorder) {
	s := core.New(core.Config{TotalCores: 16, Services: 4, AFD: afd.Config{Seed: 1}})
	s.SetRecorder(rec)
	v := &benchView{cores: 16, qcap: 32}
	pkts := make([]*packet.Packet, 1024)
	src := trace.CAIDALike(1)
	for i := range pkts {
		r, _ := src.Next()
		pkts[i] = &packet.Packet{Flow: r.Flow, Service: packet.ServiceID(i % 4), Size: r.Size}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = s.Target(pkts[i&1023], v)
	}
}

// benchView is a minimal static View for decision-latency benches.
type benchView struct {
	cores int
	qcap  int
	now   sim.Time
}

func (v *benchView) Now() sim.Time          { return v.now }
func (v *benchView) NumCores() int          { return v.cores }
func (v *benchView) QueueLen(c int) int     { return c % 7 }
func (v *benchView) QueueCap() int          { return v.qcap }
func (v *benchView) IdleFor(c int) sim.Time { return 0 }

// BenchmarkAFDObserve measures the background training path.
func BenchmarkAFDObserve(b *testing.B) {
	d := afd.New(afd.Config{Seed: 1})
	src := trace.CAIDALike(1)
	flows := make([]packet.FlowKey, 4096)
	for i := range flows {
		rec, _ := src.Next()
		flows[i] = rec.Flow
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(flows[i&4095])
	}
}

// BenchmarkSimulatorPacket measures end-to-end simulated packets/sec of
// the full stack (generator + LAPS + cores).
func BenchmarkSimulatorPacket(b *testing.B) {
	res, err := laps.Simulate(laps.SimConfig{
		StackConfig: laps.StackConfig{
			Duration: laps.Time(b.N) * 40, // ~25 Mpps offered for N packets
			Seed:     1,
			Traffic: []laps.ServiceTraffic{{
				Service: laps.SvcIPForward,
				Params:  laps.RateParams{A: 25},
				Trace:   laps.CAIDATrace(1),
			}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Generated == 0 {
		b.Fatal("no packets")
	}
}

// --- Figure/table regeneration benches ------------------------------

// BenchmarkFig2 regenerates the flow-size rank distribution.
func BenchmarkFig2(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		tb := exp.Fig2(o)
		if len(tb.Rows) != 4 {
			b.Fatal("fig2 shape")
		}
	}
}

// BenchmarkFig7 regenerates the T1-T8 scheduler comparison (reduced).
func BenchmarkFig7(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		tabs := exp.Fig7(o)
		if len(tabs) != 3 {
			b.Fatal("fig7 shape")
		}
	}
}

// BenchmarkFig8a regenerates the annex-size sweep (reduced).
func BenchmarkFig8a(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		tb := exp.Fig8a(o)
		if len(tb.Rows) != 6 {
			b.Fatal("fig8a shape")
		}
	}
}

// BenchmarkFig8b regenerates the evaluation-window sweep (reduced).
func BenchmarkFig8b(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		exp.Fig8b(o)
	}
}

// BenchmarkFig8c regenerates the sampling sweep (reduced).
func BenchmarkFig8c(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		exp.Fig8c(o)
	}
}

// BenchmarkFig9 regenerates the top-k migration comparison (reduced).
func BenchmarkFig9(b *testing.B) {
	o := benchOpts()
	o.Duration = 40 * sim.Millisecond // fig9 divides by 4 → 10ms windows
	for i := 0; i < b.N; i++ {
		tabs := exp.Fig9(o)
		if len(tabs) != 3 {
			b.Fatal("fig9 shape")
		}
	}
}

// BenchmarkTab4 regenerates the parameter table (trivially fast; kept so
// every paper artefact has a bench target).
func BenchmarkTab4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := exp.Tab4()
		if len(tb.Rows) != 8 {
			b.Fatal("tab4 shape")
		}
	}
}

// BenchmarkScenarioTable regenerates Tables V+VI.
func BenchmarkScenarioTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.ScenarioTable()
	}
}

// --- Ablation benches (DESIGN.md §5) --------------------------------

// BenchmarkAblationSingleVsTwoLevel compares detector architectures on
// identical streams (accuracy is reported by the ablation experiment;
// this bench compares their costs).
func BenchmarkAblationSingleVsTwoLevel(b *testing.B) {
	src := trace.CAIDALike(1)
	flows := make([]packet.FlowKey, 8192)
	for i := range flows {
		rec, _ := src.Next()
		flows[i] = rec.Flow
	}
	b.Run("two-level", func(b *testing.B) {
		d := afd.New(afd.Config{Seed: 1})
		for i := 0; i < b.N; i++ {
			d.Observe(flows[i&8191])
		}
	})
	b.Run("single", func(b *testing.B) {
		d := afd.NewSingleCache(528, 16)
		for i := 0; i < b.N; i++ {
			d.Observe(flows[i&8191])
		}
	})
}

// BenchmarkAblationLoadSignal compares LAPS with the EWMA load signal
// against the instantaneous-queue ablation.
func BenchmarkAblationLoadSignal(b *testing.B) {
	for _, instant := range []bool{false, true} {
		name := "ewma"
		if instant {
			name = "instant"
		}
		b.Run(name, func(b *testing.B) {
			res, err := laps.Simulate(laps.SimConfig{
				StackConfig: laps.StackConfig{
					Custom: core.New(core.Config{
						TotalCores: 16, Services: 1,
						InstantLoadSignal: instant,
						AFD:               afd.Config{Seed: 1},
					}),
					Duration: laps.Time(b.N) * 40,
					Seed:     1,
					Traffic: []laps.ServiceTraffic{{
						Service: 0,
						Params:  laps.RateParams{A: 30},
						Trace:   laps.CAIDATrace(1),
					}},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Metrics.DropRate(), "drop%")
			b.ReportMetric(float64(res.Metrics.OutOfOrder), "ooo")
		})
	}
}

// BenchmarkPcapWrite measures trace serialisation throughput.
func BenchmarkPcapWrite(b *testing.B) {
	src := trace.CAIDALike(1)
	recs := make([]trace.TimedRecord, 1000)
	for i := range recs {
		rec, _ := src.Next()
		recs[i] = trace.TimedRecord{Record: rec, TS: sim.Time(i) * sim.Microsecond}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WritePcap(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}
