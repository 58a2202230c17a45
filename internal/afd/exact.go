package afd

import (
	"sort"

	"laps/internal/packet"
)

// ExactCounter keeps exact per-flow packet counts. This is the
// "off-line analysis" the paper scores the AFD against, and also the
// mechanism of the Shi et al. comparator (per-flow statistics): the very
// overhead the AFD is designed to avoid.
type ExactCounter struct {
	counts map[packet.FlowKey]uint64
	total  uint64
}

// NewExactCounter returns an empty counter.
func NewExactCounter() *ExactCounter {
	return &ExactCounter{counts: make(map[packet.FlowKey]uint64)}
}

// Observe records one packet of flow f.
func (c *ExactCounter) Observe(f packet.FlowKey) {
	c.counts[f]++
	c.total++
}

// Count returns the exact packet count for f.
func (c *ExactCounter) Count(f packet.FlowKey) uint64 { return c.counts[f] }

// Total returns the number of packets observed.
func (c *ExactCounter) Total() uint64 { return c.total }

// Flows returns the number of distinct flows observed.
func (c *ExactCounter) Flows() int { return len(c.counts) }

// TopK returns the k highest-count flows, largest first. Ties are broken
// by the canonical byte encoding of the key so the result is
// deterministic. If fewer than k flows exist, all are returned.
func (c *ExactCounter) TopK(k int) []packet.FlowKey {
	type fc struct {
		f packet.FlowKey
		n uint64
	}
	all := make([]fc, 0, len(c.counts))
	for f, n := range c.counts {
		all = append(all, fc{f, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		bi, bj := all[i].f.Bytes(), all[j].f.Bytes()
		for x := 0; x < packet.KeyBytes; x++ {
			if bi[x] != bj[x] {
				return bi[x] < bj[x]
			}
		}
		return false
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]packet.FlowKey, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].f
	}
	return out
}

// RankSize returns the sorted per-flow packet counts, largest first —
// the data behind Fig 2's flow-size rank distribution.
func (c *ExactCounter) RankSize() []uint64 {
	sizes := make([]uint64, 0, len(c.counts))
	for _, n := range c.counts {
		sizes = append(sizes, n)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	return sizes
}

// Accuracy compares a detected flow set against ground truth.
type Accuracy struct {
	Detected       int     // entries in the detected set
	TruePositives  int     // detected flows inside the true top-k
	FalsePositives int     // detected flows outside the true top-k
	FPR            float64 // false positives / detected (Fig 8a's y-axis)
	Recall         float64 // true positives / k
}

// Evaluate scores `detected` (e.g. the AFC contents) against the true
// top-k of truth. Per the paper: "A flow found in AFC, which is not among
// the top 16 flows identified by off-line analysis is considered a false
// positive. false positive ratio = false positives/total entries."
func Evaluate(detected []packet.FlowKey, truth *ExactCounter, k int) Accuracy {
	top := truth.TopK(k)
	inTop := make(map[packet.FlowKey]bool, len(top))
	for _, f := range top {
		inTop[f] = true
	}
	var acc Accuracy
	acc.Detected = len(detected)
	for _, f := range detected {
		if inTop[f] {
			acc.TruePositives++
		} else {
			acc.FalsePositives++
		}
	}
	if acc.Detected > 0 {
		acc.FPR = float64(acc.FalsePositives) / float64(acc.Detected)
	}
	if k > 0 {
		acc.Recall = float64(acc.TruePositives) / float64(min(k, len(top)))
	}
	return acc
}
