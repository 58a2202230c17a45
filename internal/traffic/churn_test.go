package traffic

import (
	"testing"

	"laps/internal/packet"
	"laps/internal/trace"
)

// TestChurnPopulationStaysBounded pins the source's core contract: the
// live flow population is exactly Concurrent at all times, while the
// distinct-flow count grows with the packet count.
func TestChurnPopulationStaysBounded(t *testing.T) {
	c := NewChurn(ChurnConfig{Name: "t", Concurrent: 256, MeanPackets: 4, Seed: 3})
	const n = 100_000
	live := make(map[packet.FlowKey]int)
	for i := range c.slots {
		live[c.slots[i].key] = c.slots[i].left
	}
	if len(live) != 256 {
		t.Fatalf("initial population %d, want 256", len(live))
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatal("churn source exhausted")
		}
	}
	if got := len(c.slots); got != 256 {
		t.Fatalf("live population drifted to %d", got)
	}
	// Mean lifetime 4 ⇒ roughly n/4 distinct flows; accept a wide band.
	if c.started < n/8 || c.started > n {
		t.Fatalf("started %d flows over %d packets; want ~%d", c.started, n, n/4)
	}
}

// TestChurnDeterministic pins that a fixed config yields a fixed
// stream (the simulator's conformance runs depend on it).
func TestChurnDeterministic(t *testing.T) {
	a := NewChurn(ChurnConfig{Name: "t", Concurrent: 64, Seed: 9})
	b := NewChurn(ChurnConfig{Name: "t", Concurrent: 64, Seed: 9})
	for i := 0; i < 10_000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("streams diverge at packet %d: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestChurnLifetimeDistributions checks each distribution honours its
// mean roughly (fixed exactly, the others within a factor).
func TestChurnLifetimeDistributions(t *testing.T) {
	for _, tc := range []struct {
		name string
		dist LifetimeDist
	}{
		{"geometric", LifetimeGeometric},
		{"pareto", LifetimePareto},
		{"fixed", LifetimeFixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChurn(ChurnConfig{
				Name: "t", Concurrent: 512, MeanPackets: 6,
				Lifetime: tc.dist, Seed: 11,
			})
			const n = 200_000
			for i := 0; i < n; i++ {
				c.Next()
			}
			// started ≈ n/meanLifetime + initial population. Pareto's
			// realised mean is noisier (heavy tail); keep the band loose.
			perFlow := float64(n) / float64(c.started)
			if perFlow < 1 || perFlow > 30 {
				t.Fatalf("%s: %.1f packets per flow, want O(6)", tc.name, perFlow)
			}
		})
	}
}

// TestChurnUniqueKeys checks two sources with different seeds draw from
// disjoint key streams (services must never share a 5-tuple).
func TestChurnUniqueKeys(t *testing.T) {
	a := NewChurn(ChurnConfig{Name: "a", Concurrent: 128, MeanPackets: 2, Seed: 1})
	b := NewChurn(ChurnConfig{Name: "b", Concurrent: 128, MeanPackets: 2, Seed: 2})
	seen := make(map[packet.FlowKey]string)
	for i := 0; i < 50_000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if src, dup := seen[ra.Flow]; dup && src == "b" {
			t.Fatalf("key %+v appears in both streams", ra.Flow)
		}
		seen[ra.Flow] = "a"
		if src, dup := seen[rb.Flow]; dup && src == "a" {
			t.Fatalf("key %+v appears in both streams", rb.Flow)
		}
		seen[rb.Flow] = "b"
	}
}

// TestChurnIsTraceSource pins the interface contract at compile time
// and checks the preset constructs.
func TestChurnIsTraceSource(t *testing.T) {
	var _ trace.Source = NewChurn(ChurnConfig{})
	for i := 0; i < 2; i++ {
		if MillionFlowChurn(i).Name() == "" {
			t.Fatal("preset missing name")
		}
	}
}
