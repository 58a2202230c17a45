package runtime

import (
	"math/rand"
	"testing"
)

// The feedSampler's contract (feedring.go), on the pure type: no
// goroutines, no engine.

// checkConserved fails when the weights handed out so far have drifted
// feedbackStride or more from the packets seen.
func checkConserved(tb testing.TB, call int, weight, packets uint64) {
	tb.Helper()
	if d := int64(weight) - int64(packets); d <= -feedbackStride || d >= feedbackStride {
		tb.Fatalf("after run %d: reported weight %d against %d packets seen, off by %d (want under %d)",
			call, weight, packets, d, feedbackStride)
	}
}

// TestFeedSamplerConservesWeight: over every prefix of a stream of
// mixed run lengths, reported weight stays within feedbackStride of the
// packets seen. An unweighted sampler (one per pick) fails the first
// check it reaches; an every-k-th-run counter fails as soon as runs are
// longer than one packet.
func TestFeedSamplerConservesWeight(t *testing.T) {
	for _, tc := range []struct {
		name   string
		maxRun int
	}{
		{"singles", 1},
		{"short", 3},
		{"straddling", 2*feedbackStride - 2},
		{"mixed", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for lane := 0; lane < 4; lane++ {
				s := newFeedSampler(lane)
				rng := rand.New(rand.NewSource(int64(41 + lane)))
				var weight, packets uint64
				for call := 0; call < 200000; call++ {
					n := uint32(1 + rng.Intn(tc.maxRun))
					weight += uint64(s.weigh(n))
					packets += uint64(n)
					checkConserved(t, call, weight, packets)
				}
			}
		})
	}
}

// TestFeedSamplerSeesElephants: whatever the sampler's state, a run of
// 2·feedbackStride−1 packets or more yields a record, and its weight is
// within feedbackStride of the run's length.
func TestFeedSamplerSeesElephants(t *testing.T) {
	s := newFeedSampler(0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		// Move to some other state with a few short runs first.
		for k := rng.Intn(4); k > 0; k-- {
			s.weigh(uint32(1 + rng.Intn(feedbackStride)))
		}
		n := uint32(2*feedbackStride - 1 + rng.Intn(3*feedbackStride))
		if i%7 == 0 {
			n = 2*feedbackStride - 1 // the bound itself, often
		}
		w := s.weigh(n)
		if w == 0 {
			t.Fatalf("a run of %d packets went unreported (gap %d)", n, s.gap)
		}
		if d := int64(w) - int64(n); d < -feedbackStride || d > feedbackStride {
			t.Fatalf("a run of %d packets was reported as %d", n, w)
		}
	}
}

// TestFeedSamplerHasNoFixedPhase: eight flows in strict round-robin put
// the same flow at the same position of every stratum. An every-8th-
// packet counter hands one of them the whole sample; the sampler must
// give each between 1/16 and 3/16 of the weight.
func TestFeedSamplerHasNoFixedPhase(t *testing.T) {
	const packets = 64 << 10
	for lane := 0; lane < 8; lane++ {
		s := newFeedSampler(lane)
		var perFlow [feedbackStride]uint64
		var total uint64
		for i := 0; i < packets; i++ {
			w := uint64(s.weigh(1))
			perFlow[i%feedbackStride] += w
			total += w
		}
		for f, w := range perFlow {
			if w < total/16 || w > 3*total/16 {
				t.Fatalf("lane %d: flow %d got %d of %d reported packets, want between 1/16 and 3/16: %v",
					lane, f, w, total, perFlow)
			}
		}
	}
}

// TestFeedSamplerDeterministic: the weights are a function of the lane
// id and the run lengths alone — two samplers for one lane agree on
// every call, two for different lanes do not.
func TestFeedSamplerDeterministic(t *testing.T) {
	a, b, other := newFeedSampler(3), newFeedSampler(3), newFeedSampler(4)
	rng := rand.New(rand.NewSource(9))
	differ := 0
	for i := 0; i < 20000; i++ {
		n := uint32(1 + rng.Intn(5))
		wa, wb, wo := a.weigh(n), b.weigh(n), other.weigh(n)
		if wa != wb {
			t.Fatalf("call %d: two lane-3 samplers reported %d and %d for a run of %d", i, wa, wb, n)
		}
		if wa != wo {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("lanes 3 and 4 sampled identically: the lane id does not seed the sampler")
	}
}

// FuzzFeedSampler: any sequence of run lengths, zero included, keeps
// the sampler conserving and its state in range (an underflow of gap
// would show as a gap no stratum pair can produce).
func FuzzFeedSampler(f *testing.F) {
	f.Add(uint8(0), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(1), []byte{0, 15, 14, 7, 8, 9, 255, 1, 2, 3})
	f.Add(uint8(7), []byte{3, 3, 3, 2, 2, 1, 16, 64, 0, 0, 5})
	f.Fuzz(func(t *testing.T, lane uint8, runs []byte) {
		s := newFeedSampler(int(lane))
		var weight, packets uint64
		for call, n := range runs {
			w := s.weigh(uint32(n))
			if n == 0 && w != 0 {
				t.Fatalf("run %d: no packets reported as %d", call, w)
			}
			weight += uint64(w)
			packets += uint64(n)
			checkConserved(t, call, weight, packets)
			if s.gap > 2*feedbackStride-2 || s.tail >= feedbackStride {
				t.Fatalf("run %d: sampler state out of range: gap %d tail %d", call, s.gap, s.tail)
			}
		}
	})
}
