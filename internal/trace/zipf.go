// Package trace provides the packet-trace substrate: synthetic trace
// sources whose flow-size skew matches the real CAIDA / Auckland-II
// traces the paper replays (Fig 2: "network traffic constitutes several
// very high data rate flows and very large number of low data rate
// flows"), and a pcap v2.4 reader/writer so externally supplied captures
// can be replayed through the same interfaces.
package trace

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF and samples by binary search,
// which keeps the generator allocation-free per sample and exactly
// reproducible for a given source of uniforms.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. n must be >= 1
// and s >= 0 (s = 0 degenerates to uniform).
func NewZipf(s float64, n int) *Zipf {
	if n < 1 {
		panic("trace: Zipf needs at least one rank")
	}
	if s < 0 || math.IsNaN(s) {
		panic("trace: Zipf exponent must be >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Rank draws one rank using uniforms from rng.
func (z *Zipf) Rank(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
