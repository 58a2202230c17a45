package traffic

import (
	"math"
	"testing"

	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

func TestMeanComponents(t *testing.T) {
	p := RateParams{A: 2, B: 0.5, C: 1, Period: 10, Sigma: 0}
	// At t=0 the seasonal term is sin(0)=0.
	if got := p.Mean(0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean(0) = %v, want 2", got)
	}
	// At a quarter period the seasonal term is +C.
	if got := p.Mean(2.5); math.Abs(got-(2+0.5*2.5+1)) > 1e-9 {
		t.Fatalf("Mean(2.5) = %v, want %v", got, 2+0.5*2.5+1)
	}
	// Seasonality wraps with period m.
	if math.Abs(p.Mean(12.5)-p.Mean(2.5)-0.5*10) > 1e-9 {
		t.Fatalf("seasonal component did not wrap: %v vs %v", p.Mean(12.5), p.Mean(2.5))
	}
}

func TestRateNoiseAndFloor(t *testing.T) {
	p := RateParams{A: 1, Sigma: 0.5}
	if got := p.Rate(0, 2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Rate with +2sigma noise = %v, want 2", got)
	}
	// Strongly negative noise clamps at the floor, never zero/negative.
	if got := p.Rate(0, -100); got != 0.001 {
		t.Fatalf("clamped rate = %v, want 0.001", got)
	}
}

func TestZeroPeriodNoSeasonalPanic(t *testing.T) {
	p := RateParams{A: 1, C: 5, Period: 0}
	if got := p.Mean(123); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Mean with zero period = %v, want baseline only", got)
	}
}

func TestSet1UnderLoadSet2Overload(t *testing.T) {
	// Sanity-check the Table IV reading: with mostly-small packets on 16
	// cores, Set 1 should demand less than capacity at t=0 and Set 2 more.
	// Capacity per service with 4 cores each (packets/s), using the
	// paper's processing times for 64B packets:
	//   S1 vpn-out: 4 / 3.93us  ≈ 1.02 Mpps
	//   S2 ip-fwd : 4 / 0.5us   =  8 Mpps
	//   S3 scan   : 4 / 3.53us  ≈ 1.13 Mpps
	//   S4 vpn-in : 4 / 6.01us  ≈ 0.67 Mpps
	caps := [packet.NumServices]float64{
		packet.SvcVPNOut:      4 / 3.93,
		packet.SvcIPForward:   4 / 0.5,
		packet.SvcMalwareScan: 4 / 3.53,
		packet.SvcVPNIn:       4 / 6.01,
	}
	s1, s2 := Set1(), Set2()
	var demand1, demand2, cap float64
	for svc := 0; svc < packet.NumServices; svc++ {
		demand1 += s1[svc].Mean(0)
		demand2 += s2[svc].Mean(0)
		cap += caps[svc]
	}
	if demand1 >= cap {
		t.Errorf("Set1 aggregate %.2f Mpps >= capacity %.2f Mpps; should be under-load", demand1, cap)
	}
	if demand2 <= demand1 {
		t.Errorf("Set2 aggregate %.2f not above Set1 %.2f", demand2, demand1)
	}
}

func mkGen(t *testing.T, dur sim.Time, rate float64) (*sim.Engine, *Generator, *[]*packet.Packet) {
	t.Helper()
	eng := sim.NewEngine()
	var got []*packet.Packet
	g := NewGenerator(eng, Config{
		Sources: []ServiceSource{{
			Service: packet.SvcIPForward,
			Params:  RateParams{A: rate},
			Trace:   trace.NewSynthetic(trace.SynthConfig{Name: "t", Flows: 100, Skew: 1.1, Seed: 1}),
		}},
		Duration: dur,
		Seed:     42,
	}, func(p *packet.Packet) { got = append(got, p) })
	return eng, g, &got
}

func TestGeneratorEmitsAtConfiguredRate(t *testing.T) {
	// 1 Mpps for 10 ms -> ~10000 packets (Poisson, so ±5%).
	eng, g, got := mkGen(t, 10*sim.Millisecond, 1.0)
	g.Start()
	eng.Run()
	n := len(*got)
	if n < 9000 || n > 11000 {
		t.Fatalf("generated %d packets, want ~10000", n)
	}
	if g.Generated() != uint64(n) {
		t.Fatalf("Generated() = %d, want %d", g.Generated(), n)
	}
}

func TestGeneratorArrivalsOrderedAndStamped(t *testing.T) {
	eng, g, got := mkGen(t, 2*sim.Millisecond, 1.0)
	g.Start()
	eng.Run()
	var prev sim.Time
	for i, p := range *got {
		if p.Arrival < prev {
			t.Fatalf("packet %d arrival %v before previous %v", i, p.Arrival, prev)
		}
		prev = p.Arrival
		if p.ID == 0 {
			t.Fatal("packet ID not assigned")
		}
		if p.Service != packet.SvcIPForward {
			t.Fatal("service not stamped")
		}
		if p.Size == 0 {
			t.Fatal("size not stamped")
		}
	}
}

func TestGeneratorFlowSeqPerFlowMonotone(t *testing.T) {
	eng, g, got := mkGen(t, 5*sim.Millisecond, 1.0)
	g.Start()
	eng.Run()
	next := map[packet.FlowKey]uint64{}
	for _, p := range *got {
		if p.FlowSeq != next[p.Flow] {
			t.Fatalf("flow %v seq %d, want %d", p.Flow, p.FlowSeq, next[p.Flow])
		}
		next[p.Flow]++
	}
	if len(next) < 2 {
		t.Fatal("test degenerate: only one flow seen")
	}
}

func TestGeneratorStopsAtDuration(t *testing.T) {
	eng, g, got := mkGen(t, 1*sim.Millisecond, 2.0)
	g.Start()
	eng.Run()
	for _, p := range *got {
		if p.Arrival >= 1*sim.Millisecond {
			t.Fatalf("packet at %v beyond duration", p.Arrival)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() []uint64 {
		eng, g, got := mkGen(t, 2*sim.Millisecond, 1.0)
		g.Start()
		eng.Run()
		ids := make([]uint64, len(*got))
		for i, p := range *got {
			ids[i] = uint64(p.Arrival)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

func TestGeneratorMultiService(t *testing.T) {
	eng := sim.NewEngine()
	var counts [packet.NumServices]int
	cfg := Config{
		Sources: []ServiceSource{
			{Service: packet.SvcIPForward, Params: RateParams{A: 2},
				Trace: trace.NewSynthetic(trace.SynthConfig{Name: "a", Flows: 50, Skew: 1, Seed: 1})},
			{Service: packet.SvcMalwareScan, Params: RateParams{A: 1},
				Trace: trace.NewSynthetic(trace.SynthConfig{Name: "b", Flows: 50, Skew: 1, Seed: 2})},
		},
		Duration: 5 * sim.Millisecond,
		Seed:     7,
	}
	g := NewGenerator(eng, cfg, func(p *packet.Packet) { counts[p.Service]++ })
	g.Start()
	eng.Run()
	fw, sc := counts[packet.SvcIPForward], counts[packet.SvcMalwareScan]
	if fw == 0 || sc == 0 {
		t.Fatalf("services missing traffic: fwd=%d scan=%d", fw, sc)
	}
	// 2:1 rate ratio within 20%.
	ratio := float64(fw) / float64(sc)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("rate ratio %.2f, want ~2", ratio)
	}
}

func TestGeneratorTimeCompressionSpeedsDynamics(t *testing.T) {
	// With compression K, the trend term B accrues K times faster in sim
	// time. B=10 Mpps per model-second and K=100: in 2ms of sim time the
	// rate grows by 2 Mpps vs baseline 1.
	mk := func(compress float64) int {
		eng := sim.NewEngine()
		n := 0
		g := NewGenerator(eng, Config{
			Sources: []ServiceSource{{
				Service: packet.SvcIPForward,
				Params:  RateParams{A: 0.2, B: 10},
				Trace:   trace.NewSynthetic(trace.SynthConfig{Name: "t", Flows: 10, Skew: 1, Seed: 1}),
			}},
			Duration:        2 * sim.Millisecond,
			TimeCompression: compress,
			Seed:            9,
		}, func(*packet.Packet) { n++ })
		g.Start()
		eng.Run()
		return n
	}
	slow, fast := mk(1), mk(100)
	if float64(fast) < float64(slow)*2 {
		t.Fatalf("compression did not accelerate trend: %d vs %d packets", slow, fast)
	}
}

func TestGeneratorRateScale(t *testing.T) {
	mk := func(scale float64) int {
		eng := sim.NewEngine()
		n := 0
		g := NewGenerator(eng, Config{
			Sources: []ServiceSource{{
				Service: packet.SvcIPForward,
				Params:  RateParams{A: 1},
				Trace:   trace.NewSynthetic(trace.SynthConfig{Name: "t", Flows: 10, Skew: 1, Seed: 1}),
			}},
			Duration:  2 * sim.Millisecond,
			RateScale: scale,
			Seed:      9,
		}, func(*packet.Packet) { n++ })
		g.Start()
		eng.Run()
		return n
	}
	full, half := mk(1), mk(0.5)
	ratio := float64(full) / float64(half)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("rate scale ratio %.2f, want ~2", ratio)
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, cfg := range []Config{
		{},
		{Sources: []ServiceSource{{}}, Duration: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewGenerator(eng, cfg, func(*packet.Packet) {})
		}()
	}
}

func BenchmarkGenerator(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	g := NewGenerator(eng, Config{
		Sources: []ServiceSource{{
			Service: packet.SvcIPForward,
			Params:  RateParams{A: 1},
			Trace:   trace.NewSynthetic(trace.SynthConfig{Name: "b", Flows: 10000, Skew: 1.1, Seed: 1}),
		}},
		Duration: sim.Time(b.N) * sim.Microsecond,
		Seed:     1,
	}, func(*packet.Packet) { n++ })
	b.ResetTimer()
	g.Start()
	eng.Run()
}
