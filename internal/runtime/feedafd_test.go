package runtime

import (
	"math/rand"
	"testing"

	"laps/internal/afd"
	"laps/internal/crc"
	"laps/internal/packet"
	"laps/internal/trace"
)

// The detector under sampling: one seeded stream shown to two identical
// afd.Detectors, once run by run as the unsampled control plane used to
// see it and once through a feedSampler as it does now.

// bothWays is the pair of detectors and the ground truth they are
// scored against.
type bothWays struct {
	full, sampled *afd.Detector
	truth         *afd.ExactCounter
	sampler       feedSampler
	records       int // observations the sampler let through
	runs          int
}

func newBothWays() *bothWays {
	return &bothWays{
		full:    afd.New(afd.Config{Seed: 1}),
		sampled: afd.New(afd.Config{Seed: 1}),
		truth:   afd.NewExactCounter(),
		sampler: newFeedSampler(0),
	}
}

// run shows one flow run of n packets to both detectors.
func (b *bothWays) run(f packet.FlowKey, n int) {
	h := crc.FlowHash(f)
	b.runs++
	for i := 0; i < n; i++ {
		b.truth.Observe(f)
	}
	b.full.ObserveBatchH(f, h, n)
	if w := b.sampler.weigh(uint32(n)); w > 0 {
		b.records++
		b.sampled.ObserveBatchH(f, h, int(w))
	}
}

// residents returns a detector's AFC as a set.
func residents(d *afd.Detector) map[packet.FlowKey]bool {
	set := make(map[packet.FlowKey]bool)
	for _, f := range d.Aggressive() {
		set[f] = true
	}
	return set
}

// TestSampledDetectorOnCAIDALike: over a CAIDA-like stream of the Fig 8c
// length, the detector fed through the sampler finds what the detector
// fed every run finds. The trace has 8 heavy hitters, which both AFCs
// must hold, and then 16 medium elephants of one and the same rate
// (trace.CAIDALike), of which an AFC has room for eight: which eight is
// chance in either detector, so those sixteen count as one class (flow
// for flow the two AFCs share 11 residents on this stream: the heavy 8
// and 3 of the rest). Counted that way they agree on at least 14 of 16.
func TestSampledDetectorOnCAIDALike(t *testing.T) {
	const (
		packets = 400000
		heavy   = 8
		medium  = 16
	)
	b := newBothWays()
	src := trace.CAIDALike(1)
	// Back-to-back packets of one flow form a run, as they do in a
	// shard's burst.
	var cur packet.FlowKey
	n := 0
	for i := 0; i < packets; i++ {
		rec, _ := src.Next()
		if n > 0 && rec.Flow != cur {
			b.run(cur, n)
			n = 0
		}
		cur = rec.Flow
		n++
	}
	b.run(cur, n)

	full, sampled := residents(b.full), residents(b.sampled)
	top := b.truth.TopK(heavy + medium)
	agree := 0
	for rank, f := range top[:heavy] {
		if !full[f] || !sampled[f] {
			t.Errorf("true rank-%d flow %v (%d packets): AFC-resident unsampled %v, sampled %v",
				rank+1, f, b.truth.Count(f), full[f], sampled[f])
			continue
		}
		agree++
	}
	mediumFull, mediumSampled := 0, 0
	for _, f := range top[heavy:] {
		if full[f] {
			mediumFull++
		}
		if sampled[f] {
			mediumSampled++
		}
	}
	agree += min(mediumFull, mediumSampled)
	elephant := make(map[packet.FlowKey]bool, len(top))
	for _, f := range top {
		elephant[f] = true
	}
	for f := range sampled {
		if full[f] && !elephant[f] {
			agree++
		}
	}
	if agree < 14 {
		t.Errorf("the two AFCs agree on %d of 16 residents (medium elephants: %d unsampled, %d sampled), want >= 14",
			agree, mediumFull, mediumSampled)
	}
	accF := afd.Evaluate(b.full.Aggressive(), b.truth, 16)
	accS := afd.Evaluate(b.sampled.Aggressive(), b.truth, 16)
	t.Logf("%d packets in %d runs, %d records (1 per %.1f packets); FPR unsampled %.3f sampled %.3f; agree %d/16",
		packets, b.runs, b.records, float64(packets)/float64(b.records), accF.FPR, accS.FPR, agree)
}

// TestSampledDetectorSurvivesStampede is the AFC-stampede case: sixteen
// elephants carry under a tenth of the packets and the rest is a flood
// of mice, each one to three packets long, arriving in convoys of
// back-to-back trains. A weighted sample turns one picked mouse packet
// into feedbackStride references, so the risk is a herd of mice pushed
// over the promotion threshold and the elephants out of the AFC. It
// must not happen: through the sampler no mouse ends up AFC-resident,
// every elephant does, and the sampled detector reports no more false
// positives than the unsampled one — the paper's "sampling acts as a
// filter" (Fig 8c).
func TestSampledDetectorSurvivesStampede(t *testing.T) {
	const (
		packets   = 400000
		elephants = 16
	)
	b := newBothWays()
	rng := rand.New(rand.NewSource(17))
	isElephant := func(f packet.FlowKey) bool { return f.DstIP == 1 }
	mouse := uint32(0)
	sent, micePkts := 0, 0
	for sent < packets {
		// A convoy of mice trains, then one elephant packet: with convoys
		// of 8..24 trains averaging two packets, elephants carry ~3 % of
		// the stream.
		for k := 8 + rng.Intn(17); k > 0; k-- {
			mouse++
			n := 1 + rng.Intn(3)
			b.run(packet.FlowKey{SrcIP: mouse, DstIP: 2, Proto: packet.ProtoUDP}, n)
			sent += n
			micePkts += n
		}
		b.run(packet.FlowKey{SrcIP: uint32(rng.Intn(elephants)), DstIP: 1, Proto: packet.ProtoTCP}, 1)
		sent++
	}
	if share := float64(micePkts) / float64(sent); share < 0.9 {
		t.Fatalf("mice carry %.2f of the packets, the scenario wants >= 0.9", share)
	}

	sampled := residents(b.sampled)
	found := 0
	for f := range sampled {
		if isElephant(f) {
			found++
		} else {
			t.Errorf("mouse %v is AFC-resident through the sampler", f)
		}
	}
	if found != elephants {
		t.Errorf("%d of %d elephants are AFC-resident through the sampler", found, elephants)
	}
	accF := afd.Evaluate(b.full.Aggressive(), b.truth, elephants)
	accS := afd.Evaluate(b.sampled.Aggressive(), b.truth, elephants)
	if accS.FalsePositives > accF.FalsePositives {
		t.Errorf("false positives: %d sampled against %d unsampled; sampling should filter, not amplify",
			accS.FalsePositives, accF.FalsePositives)
	}
	t.Logf("%d packets, %.1f %% mice in %d flows; %d records; promotions unsampled %d sampled %d; FP unsampled %d sampled %d",
		sent, 100*float64(micePkts)/float64(sent), mouse, b.records,
		b.full.Stats().Promotions, b.sampled.Stats().Promotions, accF.FalsePositives, accS.FalsePositives)
}
