package sketch

import (
	"math/rand/v2"
	"testing"

	"laps/internal/afd"
	"laps/internal/packet"
	"laps/internal/trace"
)

func flow(id int) packet.FlowKey {
	return packet.FlowKey{SrcIP: 0x0A000000 + uint32(id), DstPort: 80, Proto: 6}
}

func TestCountMinValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCountMin(0, 4) },
		func() { NewCountMin(16, 0) },
		func() { NewSpaceSaving(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(512, 4)
	truth := map[packet.FlowKey]uint64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50000; i++ {
		f := flow(int(rng.Int32N(2000)))
		cm.Add(f)
		truth[f]++
	}
	for f, n := range truth {
		if est := cm.Estimate(f); est < n {
			t.Fatalf("flow %v estimated %d < true %d (CountMin must over-estimate)", f, est, n)
		}
	}
	if cm.total != 50000 {
		t.Fatalf("total = %d", cm.total)
	}
	if cm.width*cm.depth != 2048 {
		t.Fatalf("counters = %d", cm.width*cm.depth)
	}
}

func TestCountMinReasonablyTight(t *testing.T) {
	cm := NewCountMin(2048, 4)
	rng := rand.New(rand.NewPCG(3, 4))
	const hot = 5
	var truthHot uint64
	for i := 0; i < 100000; i++ {
		if rng.Float64() < 0.4 {
			cm.Add(flow(hot))
			truthHot++
		} else {
			cm.Add(flow(100 + int(rng.Int32N(5000))))
		}
	}
	est := cm.Estimate(flow(hot))
	if est > truthHot*11/10 {
		t.Fatalf("hot estimate %d vs true %d: conservative update too loose", est, truthHot)
	}
}

func TestCMTopKFindsElephants(t *testing.T) {
	tk := NewCMTopK(2048, 4, 16)
	truth := afd.NewExactCounter()
	src := trace.AucklandLike(1)
	for i := 0; i < 200000; i++ {
		rec, _ := src.Next()
		tk.Observe(rec.Flow)
		truth.Observe(rec.Flow)
	}
	acc := afd.Evaluate(tk.Aggressive(), truth, 16)
	if acc.Recall < 0.7 {
		t.Fatalf("CMTopK recall %.2f, want >= 0.7", acc.Recall)
	}
}

func TestSpaceSavingExactOnSmallStreams(t *testing.T) {
	ss := NewSpaceSaving(64)
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			ss.Observe(flow(i))
		}
	}
	if len(ss.counts) != 10 {
		t.Fatalf("monitored = %d", len(ss.counts))
	}
	for i := 0; i < 10; i++ {
		n, err := ss.counts[flow(i)], ss.errors[flow(i)]
		if n != uint64(i+1) || err != 0 {
			t.Fatalf("flow %d count %d err %d, want %d/0", i, n, err, i+1)
		}
	}
	top := ss.Top(3)
	for i, want := range []int{9, 8, 7} {
		if top[i] != flow(want) {
			t.Fatalf("Top[%d] = %v, want flow %d", i, top[i], want)
		}
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Any flow with frequency > N/k must be present.
	const k = 50
	ss := NewSpaceSaving(k)
	rng := rand.New(rand.NewPCG(7, 8))
	const n = 100000
	hot := flow(1)
	hotCount := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 { // 10% >> 1/50 = 2%
			ss.Observe(hot)
			hotCount++
		} else {
			ss.Observe(flow(1000 + int(rng.Int32N(30000))))
		}
	}
	est, errBound := ss.counts[hot], ss.errors[hot]
	if est == 0 {
		t.Fatal("guaranteed heavy hitter evicted")
	}
	if est < uint64(hotCount) {
		t.Fatalf("estimate %d below true count %d (SpaceSaving over-estimates)", est, hotCount)
	}
	if est-errBound > uint64(hotCount) {
		t.Fatalf("count-error lower bound %d exceeds true %d", est-errBound, hotCount)
	}
}

func TestSpaceSavingCapacityBound(t *testing.T) {
	ss := NewSpaceSaving(16)
	for i := 0; i < 10000; i++ {
		ss.Observe(flow(i))
	}
	if len(ss.counts) != 16 {
		t.Fatalf("monitored = %d, want exactly 16", len(ss.counts))
	}
	if ss.total != 10000 {
		t.Fatalf("total = %d", ss.total)
	}
}

// TestDetectorComparison pits all three approaches on the same stream —
// the data behind the extensions table.
func TestDetectorComparison(t *testing.T) {
	det := afd.New(afd.Config{Seed: 1})
	cm := NewCMTopK(4096, 4, 16)
	ss := NewSpaceSaving(512)
	truth := afd.NewExactCounter()
	src := trace.AucklandLike(1)
	for i := 0; i < 300000; i++ {
		rec, _ := src.Next()
		det.Observe(rec.Flow)
		cm.Observe(rec.Flow)
		ss.Observe(rec.Flow)
		truth.Observe(rec.Flow)
	}
	aAFD := afd.Evaluate(det.Aggressive(), truth, 16)
	aCM := afd.Evaluate(cm.Aggressive(), truth, 16)
	aSS := afd.Evaluate(ss.Top(16), truth, 16)
	t.Logf("AFD FPR=%.3f  CMTopK FPR=%.3f  SpaceSaving FPR=%.3f", aAFD.FPR, aCM.FPR, aSS.FPR)
	// All three must be broadly functional on an easy trace.
	for name, a := range map[string]afd.Accuracy{"afd": aAFD, "cm": aCM, "ss": aSS} {
		if a.Recall < 0.5 {
			t.Errorf("%s recall %.2f unusably low", name, a.Recall)
		}
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMin(4096, 4)
	flows := make([]packet.FlowKey, 1024)
	for i := range flows {
		flows[i] = flow(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(flows[i&1023])
	}
}

func BenchmarkSpaceSavingObserve(b *testing.B) {
	ss := NewSpaceSaving(512)
	flows := make([]packet.FlowKey, 4096)
	for i := range flows {
		flows[i] = flow(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Observe(flows[i&4095])
	}
}
