package afd

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"laps/internal/cache"
	"laps/internal/crc"
	"laps/internal/packet"
)

// flow builds a distinct FlowKey from a small integer id.
func flow(id int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   0x0A000000 + uint32(id),
		DstIP:   0xC0A80001,
		SrcPort: uint16(1024 + id%40000),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	cfg := d.cfg
	if cfg.AFCSize != 16 || cfg.AnnexSize != 512 || cfg.PromoteThreshold != 48 || cfg.SampleProb != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestBadSampleProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleProb > 1 did not panic")
		}
	}()
	New(Config{SampleProb: 1.5})
}

func TestNewFlowEntersAnnexNotAFC(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 3})
	d.Observe(flow(1))
	if d.IsAggressive(flow(1)) {
		t.Fatal("single observation promoted straight into AFC")
	}
	if !inAnnex(d, flow(1)) {
		t.Fatal("new flow not installed in annex")
	}
}

func TestPromotionRequiresThresholdExceeded(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 3})
	f := flow(1)
	// Insert at count 1, then touches raise it: promotion happens when
	// the count exceeds 3, i.e. on the touch reaching 4.
	d.Observe(f) // count 1 (insert)
	d.Observe(f) // 2
	d.Observe(f) // 3
	if d.IsAggressive(f) {
		t.Fatal("promoted at threshold, want strictly above")
	}
	d.Observe(f) // 4 > 3 → promote
	if !d.IsAggressive(f) {
		t.Fatal("not promoted after exceeding threshold")
	}
	if inAnnex(d, f) {
		t.Fatal("promoted flow still resident in annex (levels must be disjoint)")
	}
	if s := d.Stats(); s.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", s.Promotions)
	}
}

func TestAFCHitCountsAndStaysPut(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 2})
	f := flow(1)
	for i := 0; i < 3; i++ {
		d.Observe(f)
	}
	if !d.IsAggressive(f) {
		t.Fatal("setup: flow not promoted")
	}
	before := d.Stats().AFCHits
	d.Observe(f)
	if got := d.Stats().AFCHits; got != before+1 {
		t.Fatalf("AFCHits = %d, want %d", got, before+1)
	}
}

func TestDemotionGoesToAnnex(t *testing.T) {
	d := New(Config{AFCSize: 2, AnnexSize: 16, PromoteThreshold: 2})
	promote := func(f packet.FlowKey, times int) {
		for i := 0; i < times; i++ {
			d.Observe(f)
		}
	}
	promote(flow(1), 3)
	promote(flow(2), 3)
	if d.AFCLen() != 2 {
		t.Fatalf("AFC len = %d, want 2", d.AFCLen())
	}
	// Promoting a third flow must demote the AFC victim into the annex.
	promote(flow(3), 10)
	if !d.IsAggressive(flow(3)) {
		t.Fatal("flow 3 not promoted")
	}
	if d.AFCLen() != 2 {
		t.Fatalf("AFC len = %d after demotion, want 2", d.AFCLen())
	}
	s := d.Stats()
	if s.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", s.Demotions)
	}
	// Exactly one of flows 1,2 was demoted, and it must be in the annex.
	demotedInAnnex := 0
	for _, f := range []packet.FlowKey{flow(1), flow(2)} {
		if !d.IsAggressive(f) {
			if inAnnex(d, f) {
				demotedInAnnex++
			}
		}
	}
	if demotedInAnnex != 1 {
		t.Fatalf("demoted flows found in annex = %d, want 1", demotedInAnnex)
	}
}

func TestLevelsDisjointInvariant(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 32, PromoteThreshold: 3, Seed: 7})
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 50000; i++ {
		d.Observe(flow(int(rng.Int32N(200))))
	}
	for _, f := range d.Aggressive() {
		if inAnnex(d, f) {
			t.Fatalf("flow %v resident in both AFC and annex", f)
		}
	}
	if d.AFCLen() > 4 {
		t.Fatalf("AFC overfull: %d", d.AFCLen())
	}
}

func TestInvalidate(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 2})
	f := flow(1)
	for i := 0; i < 3; i++ {
		d.Observe(f)
	}
	if !d.InvalidateH(f, crc.FlowHash(f)) {
		t.Fatal("Invalidate missed a resident flow")
	}
	if d.IsAggressive(f) {
		t.Fatal("flow aggressive after Invalidate")
	}
	if d.InvalidateH(f, crc.FlowHash(f)) {
		t.Fatal("second Invalidate succeeded")
	}
	if s := d.Stats(); s.Invalidated != 1 {
		t.Fatalf("Invalidated = %d, want 1", s.Invalidated)
	}
}

// elephantsAndMice drives a stream with `elephants` hot flows (each ~hotShare
// of traffic collectively) and a long tail of mice, then reports detection.
func elephantsAndMice(t *testing.T, d *Detector, elephants, mice, packets int, seed uint64) *ExactCounter {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	truth := NewExactCounter()
	for i := 0; i < packets; i++ {
		var f packet.FlowKey
		if rng.Float64() < 0.6 { // 60% of packets belong to the elephants
			f = flow(int(rng.Int32N(int32(elephants))))
		} else {
			f = flow(elephants + int(rng.Int32N(int32(mice))))
		}
		d.Observe(f)
		truth.Observe(f)
	}
	return truth
}

func TestDetectorFindsElephants(t *testing.T) {
	d := New(Config{AFCSize: 16, AnnexSize: 512, PromoteThreshold: 4, Seed: 3})
	truth := elephantsAndMice(t, d, 16, 20000, 300000, 5)
	acc := Evaluate(d.Aggressive(), truth, 16)
	if acc.Detected < 16 {
		t.Fatalf("AFC holds %d flows, want 16", acc.Detected)
	}
	if acc.FPR > 0.2 {
		t.Fatalf("FPR = %.2f, want <= 0.2 on an easy elephant workload", acc.FPR)
	}
}

func TestSmallAnnexDegradesAccuracy(t *testing.T) {
	// Fig 8a's monotone trend: a bigger annex should not be worse.
	fprAt := func(annex int) float64 {
		d := New(Config{AFCSize: 16, AnnexSize: annex, PromoteThreshold: 4, Seed: 3})
		truth := elephantsAndMice(t, d, 16, 50000, 200000, 7)
		return Evaluate(d.Aggressive(), truth, 16).FPR
	}
	small, large := fprAt(32), fprAt(1024)
	if large > small+0.1 {
		t.Fatalf("FPR grew with annex size: annex=32 %.2f vs annex=1024 %.2f", small, large)
	}
}

func TestSamplingIsDeterministic(t *testing.T) {
	run := func() Stats {
		d := New(Config{AFCSize: 16, AnnexSize: 128, PromoteThreshold: 4, SampleProb: 0.1, Seed: 11})
		rng := rand.New(rand.NewPCG(2, 2))
		for i := 0; i < 20000; i++ {
			d.Observe(flow(int(rng.Int32N(500))))
		}
		return d.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sampled runs diverged: %+v vs %+v", a, b)
	}
	if a.Sampled == 0 || a.Sampled >= a.Observed {
		t.Fatalf("sampling ineffective: %d of %d", a.Sampled, a.Observed)
	}
	// Rough binomial check: 10% ± 2%.
	frac := float64(a.Sampled) / float64(a.Observed)
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("sample fraction %.3f, want ~0.1", frac)
	}
}

func TestReset(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 2})
	for i := 0; i < 100; i++ {
		d.Observe(flow(i % 5))
	}
	d.Reset()
	if d.AFCLen() != 0 || d.annex.Len() != 0 {
		t.Fatal("caches not cleared by Reset")
	}
	if d.Stats() != (Stats{}) {
		t.Fatal("stats not cleared by Reset")
	}
}

func TestStatsConservation(t *testing.T) {
	d := New(Config{AFCSize: 8, AnnexSize: 64, PromoteThreshold: 3, Seed: 5})
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 30000; i++ {
		d.Observe(flow(int(rng.Int32N(300))))
	}
	s := d.Stats()
	if s.Sampled != s.AFCHits+s.AnnexHits+s.Misses {
		t.Fatalf("sampled %d != AFC %d + annex %d + miss %d",
			s.Sampled, s.AFCHits, s.AnnexHits, s.Misses)
	}
	if s.Observed != s.Sampled {
		t.Fatalf("with SampleProb 1, Observed %d != Sampled %d", s.Observed, s.Sampled)
	}
}

func TestLRUPolicyWiring(t *testing.T) {
	d := New(Config{AFCSize: 4, AnnexSize: 16, PromoteThreshold: 2, Policy: LRU})
	if d.cfg.Policy != LRU {
		t.Fatal("policy not recorded")
	}
	f := flow(1)
	for i := 0; i < 3; i++ {
		d.Observe(f)
	}
	if !d.IsAggressive(f) {
		t.Fatal("promotion broken under LRU policy")
	}
}

func TestPolicyString(t *testing.T) {
	if LFU.String() != "lfu" || LRU.String() != "lru" {
		t.Fatal("Policy.String mismatch")
	}
}

func TestExactCounterTopK(t *testing.T) {
	c := NewExactCounter()
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			c.Observe(flow(i))
		}
	}
	top3 := c.TopK(3)
	want := []packet.FlowKey{flow(9), flow(8), flow(7)}
	for i := range want {
		if top3[i] != want[i] {
			t.Fatalf("TopK[%d] = %v, want %v", i, top3[i], want[i])
		}
	}
	if c.Total() != 55 || c.Flows() != 10 {
		t.Fatalf("Total=%d Flows=%d, want 55/10", c.Total(), c.Flows())
	}
	if got := c.TopK(100); len(got) != 10 {
		t.Fatalf("TopK(100) len = %d, want 10", len(got))
	}
}

func TestExactCounterRankSizeSorted(t *testing.T) {
	c := NewExactCounter()
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 10000; i++ {
		c.Observe(flow(int(rng.Int32N(100))))
	}
	rs := c.RankSize()
	if len(rs) != c.Flows() {
		t.Fatalf("RankSize len = %d, want %d", len(rs), c.Flows())
	}
	var sum uint64
	for i, n := range rs {
		sum += n
		if i > 0 && rs[i] > rs[i-1] {
			t.Fatal("RankSize not descending")
		}
	}
	if sum != c.Total() {
		t.Fatalf("RankSize sum %d != Total %d", sum, c.Total())
	}
}

func TestEvaluateScoring(t *testing.T) {
	c := NewExactCounter()
	// flows 0..4 with counts 5..1
	for i := 0; i < 5; i++ {
		for j := 0; j < 5-i; j++ {
			c.Observe(flow(i))
		}
	}
	detected := []packet.FlowKey{flow(0), flow(1), flow(4)} // 4 is outside top-2
	acc := Evaluate(detected, c, 2)
	if acc.TruePositives != 2 || acc.FalsePositives != 1 {
		t.Fatalf("TP=%d FP=%d, want 2/1", acc.TruePositives, acc.FalsePositives)
	}
	if acc.FPR != 1.0/3.0 {
		t.Fatalf("FPR = %v, want 1/3", acc.FPR)
	}
	if acc.Recall != 1.0 {
		t.Fatalf("Recall = %v, want 1", acc.Recall)
	}
}

func TestEvaluateEmptyDetected(t *testing.T) {
	c := NewExactCounter()
	c.Observe(flow(0))
	acc := Evaluate(nil, c, 16)
	if acc.FPR != 0 || acc.Recall != 0 {
		t.Fatalf("empty detected: %+v", acc)
	}
}

func TestSingleCacheMoreFalsePositivesUnderMiceChurn(t *testing.T) {
	// The paper's claim vs ElephantTrap-style single caches ("such a
	// scheme can result in large number of false positives due to many
	// 'mice' flows active at any time"): mice arrive as short overlapping
	// bursts; in a single small cache each burst entrenches a mid-count
	// entry that later count-1 churn can never displace, while the AFD's
	// annex filters bursts out of the AFC entirely.
	const elephants, packets, burst = 16, 300000, 25

	// Threshold above the burst length: a mouse can never qualify.
	two := New(Config{AFCSize: 16, AnnexSize: 512, PromoteThreshold: 32, Seed: 3})
	single := NewSingleCache(16, 16)
	rng := rand.New(rand.NewPCG(21, 22))
	truth := NewExactCounter()
	type mouse struct{ id, left int }
	var active []mouse
	nextMouse := 1 << 20
	for i := 0; i < packets; i++ {
		var f packet.FlowKey
		if rng.Float64() < 0.5 {
			f = flow(int(rng.Int32N(elephants)))
		} else {
			if len(active) == 0 || (len(active) < 200 && rng.Float64() < 0.3) {
				active = append(active, mouse{nextMouse, burst})
				nextMouse++
			}
			j := int(rng.Int32N(int32(len(active))))
			f = flow(active[j].id)
			if active[j].left--; active[j].left <= 0 {
				active[j] = active[len(active)-1]
				active = active[:len(active)-1]
			}
		}
		two.Observe(f)
		single.Observe(f)
		truth.Observe(f)
	}
	fprTwo := Evaluate(two.Aggressive(), truth, 16).FPR
	fprSingle := Evaluate(single.Aggressive(), truth, 16).FPR
	if fprTwo >= fprSingle {
		t.Fatalf("two-level FPR %.3f not better than single small cache %.3f", fprTwo, fprSingle)
	}
	if fprSingle < 0.2 {
		t.Fatalf("single small cache FPR %.3f unexpectedly low; churn model too weak", fprSingle)
	}
	if fprTwo > 0.1 {
		t.Fatalf("two-level FPR %.3f, want near zero on this workload", fprTwo)
	}
}

func TestSingleCacheBasics(t *testing.T) {
	s := NewSingleCache(8, 4)
	if len(s.Aggressive()) != 0 {
		t.Fatal("empty single cache reports aggressive flows")
	}
	for i := 0; i < 20; i++ {
		s.Observe(flow(1))
	}
	s.Observe(flow(2))
	ag := s.Aggressive()
	if len(ag) != 2 || ag[len(ag)-1] != flow(1) {
		t.Fatalf("Aggressive() = %v, want flows 2 and 1, flow 1 hottest (last)", ag)
	}
	for i := 3; i < 8; i++ {
		s.Observe(flow(i))
	}
	if ag := s.Aggressive(); len(ag) != 4 || ag[len(ag)-1] != flow(1) {
		t.Fatalf("Aggressive() = %v, want the top 4 with flow 1 hottest (last)", ag)
	}
}

func BenchmarkDetectorObserveHit(b *testing.B) {
	d := New(Config{AFCSize: 16, AnnexSize: 512, PromoteThreshold: 4})
	f := flow(1)
	for i := 0; i < 10; i++ {
		d.Observe(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(f)
	}
}

func BenchmarkDetectorObserveChurn(b *testing.B) {
	d := New(Config{AFCSize: 16, AnnexSize: 512, PromoteThreshold: 4})
	rng := rand.New(rand.NewPCG(1, 2))
	flows := make([]packet.FlowKey, 4096)
	for i := range flows {
		flows[i] = flow(int(rng.Int32N(1 << 20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(flows[i&4095])
	}
}

// TestObserveBatchMatchesSequential is the batch-observe equivalence
// gate: for any interleaving of flows and batch sizes, ObserveBatchH(n)
// must leave the detector in exactly the state n sequential ObserveH
// calls would — same stats, same AFC and annex residents in the same
// eviction order, same RNG consumption (checked by running sampling
// decisions through both detectors from the same seed).
func TestObserveBatchMatchesSequential(t *testing.T) {
	const flows = 60
	for _, prob := range []float64{1, 0.35} {
		cfg := Config{AFCSize: 8, AnnexSize: 32, PromoteThreshold: 5, SampleProb: prob, Seed: 31}
		seq := New(cfg)
		bat := New(cfg)

		// A deterministic but irregular op stream: heavy flows, light
		// flows, batch sizes that straddle the promote threshold and the
		// annex capacity, plus enough distinct flows to force evictions.
		r := rand.New(rand.NewPCG(7, 11))
		for op := 0; op < 4000; op++ {
			f := flow(int(r.Uint64() % flows))
			n := 1 + int(r.Uint64()%9)
			for i := 0; i < n; i++ {
				seq.ObserveH(f, crc.FlowHash(f))
			}
			bat.ObserveBatchH(f, crc.FlowHash(f), n)
		}
		if diff := detectorDiff(seq, bat, flows); diff != "" {
			t.Fatalf("SampleProb=%v: %s", prob, diff)
		}
	}
}

// inAnnex reports whether f resides in d's annex cache.
func inAnnex(d *Detector, f packet.FlowKey) bool {
	_, ok := d.annex.Count(f, crc.FlowHash(f))
	return ok
}

// afcEntries lists d's AFC residents with their counts, victim first.
func afcEntries(d *Detector) []cache.Entry {
	keys := d.afc.Keys()
	es := make([]cache.Entry, len(keys))
	for i, k := range keys {
		h := crc.FlowHash(k)
		n, _ := d.afc.Count(k, h)
		es[i] = cache.Entry{Key: k, Hash: h, Count: n}
	}
	return es
}

// detectorDiff describes the first difference between two detectors'
// observable state — stats, AFC entries in eviction order, annex
// occupancy and which of flows 0..flows-1 reside in the annex — or
// returns "" when there is none.
func detectorDiff(seq, bat *Detector, flows int) string {
	if seq.Stats() != bat.Stats() {
		return fmt.Sprintf("stats diverge:\nsequential: %+v\nbatch:      %+v", seq.Stats(), bat.Stats())
	}
	se, be := afcEntries(seq), afcEntries(bat)
	if len(se) != len(be) {
		return fmt.Sprintf("AFC sizes diverge: %d vs %d", len(se), len(be))
	}
	for i := range se {
		if se[i] != be[i] {
			return fmt.Sprintf("AFC entry %d diverges: %+v vs %+v", i, se[i], be[i])
		}
	}
	if seq.annex.Len() != bat.annex.Len() {
		return fmt.Sprintf("annex sizes diverge: %d vs %d", seq.annex.Len(), bat.annex.Len())
	}
	for id := 0; id < flows; id++ {
		if a, b := inAnnex(seq, flow(id)), inAnnex(bat, flow(id)); a != b {
			return fmt.Sprintf("flow %d in annex: sequential %v, batch %v", id, a, b)
		}
	}
	return ""
}

// FuzzObserveBatch drives two detectors through one operation stream,
// one observing each run in a single ObserveBatchH(f, h, n) and the other
// in n ObserveH calls, and requires identical state after every
// operation. The live runtime trains LAPS only through ObserveBatchH, at
// the lane sampler's weights: multiples of its stride, and long runs at
// their exact length, up to a whole burst chunk of 256.
//
// Input: five config bytes — AFC size, annex size, promotion threshold,
// sample probability (255 = 1, else (b+1)/256), seed and policy — then
// two bytes per operation: a flow id (low 5 bits) and a kind (high 3
// bits; 7 invalidates the flow, as a migration does), and a run length
// of 1..256.
func FuzzObserveBatch(f *testing.F) {
	f.Add([]byte{4, 16, 5, 255, 0, 1, 0, 1, 255, 2, 7, 1, 7, 0, 0, 3, 15})
	f.Add([]byte{2, 4, 40, 89, 3, 0, 255, 1, 255, 2, 255, 0, 7, 3, 63, 4, 127})
	f.Add([]byte{8, 32, 1, 31, 6, 1, 8, 2, 16, 3, 24, 224, 0, 4, 200, 5, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		const flows = 32
		if len(data) < 5 {
			return
		}
		cfg := Config{
			AFCSize:          1 + int(data[0]%8),
			AnnexSize:        2 + int(data[1]%32),
			PromoteThreshold: 1 + uint64(data[2]%64),
			SampleProb:       1,
			Seed:             uint64(data[4] >> 1),
			Policy:           Policy(data[4] & 1),
		}
		if data[3] != 255 {
			cfg.SampleProb = float64(data[3]+1) / 256
		}
		seq, bat := New(cfg), New(cfg)
		for ops := data[5:]; len(ops) >= 2; ops = ops[2:] {
			id, kind, n := int(ops[0]%flows), ops[0]>>5, 1+int(ops[1])
			fl := flow(id)
			h := crc.FlowHash(fl)
			if kind == 7 {
				if a, b := seq.InvalidateH(fl, h), bat.InvalidateH(fl, h); a != b {
					t.Fatalf("invalidate flow %d: sequential %v, batch %v", id, a, b)
				}
			} else {
				for i := 0; i < n; i++ {
					seq.ObserveH(fl, h)
				}
				bat.ObserveBatchH(fl, h, n)
			}
			if diff := detectorDiff(seq, bat, flows); diff != "" {
				t.Fatalf("%+v, after flow %d kind %d n %d: %s", cfg, id, kind, n, diff)
			}
		}
	})
}
