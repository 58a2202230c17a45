package trace

import (
	"hash/fnv"
	"testing"

	"laps/internal/packet"
)

func twoClassCfg() SynthConfig {
	return SynthConfig{
		Name:          "tc",
		Flows:         5000,
		Skew:          1,
		HotFlows:      8,
		HotShare:      0.3,
		BurstMean:     8,
		BurstConc:     64,
		TrainsPerFlow: 4,
		TrainGap:      500,
		Seed:          11,
	}
}

func TestTwoClassHotShare(t *testing.T) {
	s := NewSynthetic(twoClassCfg())
	hot := map[packet.FlowKey]bool{}
	for _, k := range s.keys[:8] {
		hot[k] = true
	}
	const n = 100000
	hotN := 0
	for i := 0; i < n; i++ {
		rec, _ := s.Next()
		if hot[rec.Flow] {
			hotN++
		}
	}
	frac := float64(hotN) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("hot share %.3f, want ~0.3", frac)
	}
}

func TestTwoClassMiceAreFreshFlows(t *testing.T) {
	s := NewSynthetic(twoClassCfg())
	seen := map[packet.FlowKey]bool{}
	for i := 0; i < 100000; i++ {
		rec, _ := s.Next()
		seen[rec.Flow] = true
	}
	// Mice churn endlessly: distinct flows must far exceed the hot set.
	if len(seen) < 1000 {
		t.Fatalf("only %d distinct flows; mice churn inactive", len(seen))
	}
}

func TestTwoClassTrainsHaveLocality(t *testing.T) {
	// Consecutive mice packets should frequently repeat the same flow
	// (service runs), which is what entrenches mice in LFU caches.
	s := NewSynthetic(twoClassCfg())
	var prev packet.FlowKey
	repeats, miceN := 0, 0
	hot := map[packet.FlowKey]bool{}
	for _, k := range s.keys[:8] {
		hot[k] = true
	}
	for i := 0; i < 50000; i++ {
		rec, _ := s.Next()
		if hot[rec.Flow] {
			continue
		}
		if rec.Flow == prev {
			repeats++
		}
		prev = rec.Flow
		miceN++
	}
	frac := float64(repeats) / float64(miceN)
	if frac < 0.3 {
		t.Fatalf("mice self-repeat fraction %.3f, want >= 0.3 (temporal locality)", frac)
	}
}

func TestTwoClassMultiTrainFlowsReturn(t *testing.T) {
	// With TrainsPerFlow > 1 some mice must appear in non-adjacent
	// bursts: count flows whose packets span more than 3x the burst mean.
	s := NewSynthetic(twoClassCfg())
	first := map[packet.FlowKey]int{}
	last := map[packet.FlowKey]int{}
	hot := map[packet.FlowKey]bool{}
	for _, k := range s.keys[:8] {
		hot[k] = true
	}
	for i := 0; i < 200000; i++ {
		rec, _ := s.Next()
		if hot[rec.Flow] {
			continue
		}
		if _, ok := first[rec.Flow]; !ok {
			first[rec.Flow] = i
		}
		last[rec.Flow] = i
	}
	returning := 0
	for f, lo := range first {
		if last[f]-lo > 2000 { // far beyond one train's extent
			returning++
		}
	}
	if returning < 100 {
		t.Fatalf("only %d mice returned for later trains; sessions broken", returning)
	}
}

func TestHotWeightsExplicit(t *testing.T) {
	cfg := twoClassCfg()
	cfg.HotWeights = []float64{8, 1, 1} // first elephant 80% of hot traffic
	cfg.HotFlows = 99                   // overridden by len(HotWeights)
	s := NewSynthetic(cfg)
	counts := map[packet.FlowKey]int{}
	for i := 0; i < 100000; i++ {
		rec, _ := s.Next()
		counts[rec.Flow]++
	}
	c0 := counts[s.keys[0]]
	c1 := counts[s.keys[1]]
	if c0 < 5*c1 {
		t.Fatalf("weight-8 elephant %d vs weight-1 %d; want ~8x", c0, c1)
	}
	if s.cfg.HotFlows != 3 {
		t.Fatalf("HotFlows = %d, want len(HotWeights)", s.cfg.HotFlows)
	}
}

func TestHotWeightsValidation(t *testing.T) {
	cfg := twoClassCfg()
	cfg.HotWeights = []float64{1, -1}
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	NewSynthetic(cfg)
}

func TestTwoClassDefaultBurstMean(t *testing.T) {
	cfg := twoClassCfg()
	cfg.BurstMean = 0 // two-class mode defaults it to 8
	s := NewSynthetic(cfg)
	if s.cfg.BurstMean != 8 {
		t.Fatalf("BurstMean defaulted to %v, want 8", s.cfg.BurstMean)
	}
}

func TestPresetKeyStreamsDisjoint(t *testing.T) {
	// Regression for the phantom-migration bug: distinct trace instances
	// must never share flow keys.
	a, b := CAIDALike(1), CAIDALike(2)
	seenA := map[packet.FlowKey]bool{}
	for i := 0; i < 20000; i++ {
		rec, _ := a.Next()
		seenA[rec.Flow] = true
	}
	for i := 0; i < 20000; i++ {
		rec, _ := b.Next()
		if seenA[rec.Flow] {
			t.Fatalf("flow %v appears in both caida-like-1 and caida-like-2", rec.Flow)
		}
	}
	c := AucklandLike(1)
	for i := 0; i < 20000; i++ {
		rec, _ := c.Next()
		if seenA[rec.Flow] {
			t.Fatalf("flow %v shared between caida and auckland presets", rec.Flow)
		}
	}
}

func TestPresetTopFlowsAreSchedulable(t *testing.T) {
	// For Fig 9's physics every elephant must fit inside a core's
	// headroom: no flow may exceed ~2% of packets (≈ 1/3 of one of 16
	// cores at 105% load).
	for _, src := range []*Synthetic{CAIDALike(1), AucklandLike(1)} {
		counts := map[packet.FlowKey]int{}
		const n = 300000
		for i := 0; i < n; i++ {
			rec, _ := src.Next()
			counts[rec.Flow]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if frac := float64(max) / n; frac > 0.02 {
			t.Errorf("%s: top flow carries %.3f of packets; exceeds schedulable size", src.Name(), frac)
		}
	}
}

// TestDormantQueueStaysBounded: the dormant-flow FIFO pops at the front
// and pushes at the back for the whole run; its backing array must
// settle at a constant factor of the flows dormant at once instead of
// being reallocated as the queue walks forward (it was ~30 MB per 3 M
// packets of a T5 run). Reclaiming the prefix must not change a single
// record: the stream hashes are those of the append-and-reslice queue.
func TestDormantQueueStaysBounded(t *testing.T) {
	for _, tc := range []struct {
		src  *Synthetic
		hash uint64
	}{
		{CAIDALike(1), 0xecbef018198fadc},
		{AucklandLike(3), 0x85a50e08900a825a},
	} {
		s := tc.src
		h := fnv.New64a()
		peak := 0
		for i := 0; i < 1000000; i++ {
			r, _ := s.Next()
			b := r.Flow.Bytes()
			h.Write(b[:])
			h.Write([]byte{byte(r.Size), byte(r.Size >> 8)})
			if live := len(s.dormant) - s.dormHead; live > peak {
				peak = live
			}
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("%s: record stream hash %#x, want %#x", s.Name(), got, tc.hash)
		}
		if peak == 0 || cap(s.dormant) > 4*peak {
			t.Errorf("%s: dormant queue capacity %d for at most %d dormant flows, want <= 4x", s.Name(), cap(s.dormant), peak)
		}
		if avg := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000000; i++ {
				s.Next()
			}
		}); avg != 0 {
			t.Errorf("%s: %v allocations in a further 1M records, want 0", s.Name(), avg)
		}
	}
}
