package afd

import (
	"laps/internal/cache"
	"laps/internal/crc"
	"laps/internal/packet"
)

// SingleCache is the single-level comparator from related work (Lu et
// al.'s ElephantTrap-style design, ref [28]): one LFU cache tracks flow
// counts and the k hottest residents are reported as aggressive. The
// paper argues this yields "a large number of false positives due to many
// 'mice' flows active at any time" because every miss installs a mouse
// directly into the structure the scheduler reads; the two-level AFD's
// annex filters those out. Benchmarked head-to-head in the ablation
// (BenchmarkAblationSingleVsTwoLevel and the fig8 drivers).
type SingleCache struct {
	cache *cache.LFU
	k     int
}

// NewSingleCache builds a single-level detector with the given cache
// capacity reporting the top k residents.
func NewSingleCache(capacity, k int) *SingleCache {
	if k > capacity {
		k = capacity
	}
	return &SingleCache{cache: cache.NewLFU(capacity), k: k}
}

// Observe offers one packet's flow ID to the detector.
func (s *SingleCache) Observe(f packet.FlowKey) {
	h := crc.FlowHash(f)
	if _, ok := s.cache.Touch(f, h); !ok {
		s.cache.Insert(f, h, 1)
	}
}

// Aggressive returns the k hottest resident flows (hottest last, matching
// Detector.Aggressive's ordering convention).
func (s *SingleCache) Aggressive() []packet.FlowKey {
	entries := s.cache.Entries() // ascending count order, victim first
	if len(entries) > s.k {
		entries = entries[len(entries)-s.k:]
	}
	out := make([]packet.FlowKey, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}
