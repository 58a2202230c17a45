package sketch

import (
	"sort"

	"laps/internal/packet"
)

// keyLess orders flow keys canonically, for deterministic tie-breaks.
func keyLess(a, b packet.FlowKey) bool {
	ba, bb := a.Bytes(), b.Bytes()
	for i := range ba {
		if ba[i] != bb[i] {
			return ba[i] < bb[i]
		}
	}
	return false
}

// SpaceSaving is Metwally et al.'s stream-summary heavy-hitter
// algorithm: exactly k counters; a new flow replaces the minimum counter
// and inherits its count as over-estimation error. Guarantees that any
// flow with true frequency > N/k is present.
type SpaceSaving struct {
	capacity int
	counts   map[packet.FlowKey]uint64
	errors   map[packet.FlowKey]uint64
	total    uint64
}

// NewSpaceSaving builds a summary with the given counter budget (>= 1).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		panic("sketch: SpaceSaving needs capacity >= 1")
	}
	return &SpaceSaving{
		capacity: capacity,
		counts:   make(map[packet.FlowKey]uint64, capacity),
		errors:   make(map[packet.FlowKey]uint64, capacity),
	}
}

// Observe records one packet of flow f.
func (s *SpaceSaving) Observe(f packet.FlowKey) {
	s.total++
	if _, ok := s.counts[f]; ok {
		s.counts[f]++
		return
	}
	if len(s.counts) < s.capacity {
		s.counts[f] = 1
		return
	}
	// Replace the minimum-count entry; the newcomer inherits its count.
	// Ties break on the key encoding so results never depend on map
	// iteration order.
	var minF packet.FlowKey
	minV := uint64(1 << 62)
	first := true
	for g, v := range s.counts {
		if v < minV || (v == minV && !first && keyLess(g, minF)) {
			minF, minV = g, v
			first = false
		}
	}
	delete(s.counts, minF)
	delete(s.errors, minF)
	s.counts[f] = minV + 1
	s.errors[f] = minV
}

// Top returns the k highest-estimate flows, hottest first. Ties break by
// smaller error then key bytes for determinism.
func (s *SpaceSaving) Top(k int) []packet.FlowKey {
	type fc struct {
		f packet.FlowKey
		n uint64
		e uint64
	}
	all := make([]fc, 0, len(s.counts))
	for f, n := range s.counts {
		all = append(all, fc{f, n, s.errors[f]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		if all[i].e != all[j].e {
			return all[i].e < all[j].e
		}
		bi, bj := all[i].f.Bytes(), all[j].f.Bytes()
		for x := range bi {
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
