// Package sketch implements the counter-based heavy-hitter detectors the
// paper's related work surveys as alternatives to the AFD (§VI: "There
// have been extensive researches on reducing the overheads of keeping
// per flow counters [27],[18],[12],[41],[40] to find the accurate
// estimate of the rates of aggressive flows"):
//
//   - CountMin: a d×w counter-array sketch (Cormode–Muthukrishnan, in
//     the spirit of Estan–Varghese multistage filters [12]) paired with
//     a top-k candidate heap;
//   - SpaceSaving: the stream-summary algorithm keeping exactly k
//     counters with min-replacement.
//
// They let the ablation experiments compare the AFD's two-level cache
// against the counting approaches it claims to sidestep ("LAPS merely
// needs to identify the top aggressive flows without accurately
// estimating the rates of all flows").
package sketch

import "laps/internal/packet"

// CountMin is a conservative-update count-min sketch over flow keys.
type CountMin struct {
	width int
	depth int
	rows  [][]uint32
	seeds []uint64
	total uint64
}

// NewCountMin builds a sketch with the given width (counters per row)
// and depth (independent rows). Both must be >= 1.
func NewCountMin(width, depth int) *CountMin {
	if width < 1 || depth < 1 {
		panic("sketch: CountMin needs width and depth >= 1")
	}
	c := &CountMin{width: width, depth: depth}
	seed := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < depth; i++ {
		c.rows = append(c.rows, make([]uint32, width))
		seed = mix64(seed + 0xA24BAED4963EE407)
		c.seeds = append(c.seeds, seed)
	}
	return c
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keyWords packs a flow key into the two words the sketches hash: the
// big-endian reading of bytes 0..7 and 8..12 of FlowKey.Bytes (pinned
// by TestKeyWordsMatchByteEncoding), without the round trip through
// the bytes.
func keyWords(f *packet.FlowKey) (hi, lo uint64) {
	hi = uint64(f.SrcIP)<<32 | uint64(f.DstIP)
	lo = uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)
	return hi, lo
}

// KeyHash is a seeded 64-bit hash of a flow key: two mix64 rounds over
// its key words. Unlike a salted CRC, whose linearity makes every seed
// collide on the same key pairs, different seeds give independent
// hashes — and none of them correlates with the CRC16 that picks a
// flow's lane, worker and tracker shard. The key is read in place: a
// copied key costs a store-forwarding stall (narrow stores, one wide
// reload) that is most of a hash's price.
func KeyHash(f *packet.FlowKey, seed uint64) uint64 {
	hi, lo := keyWords(f)
	return mix64(mix64(hi^seed) + lo)
}

// index returns row i's counter index for flow f; each row hashes with
// its own seed.
func (c *CountMin) index(i int, f *packet.FlowKey) int {
	return int(KeyHash(f, c.seeds[i]) % uint64(c.width))
}

// Add records one packet of flow f using conservative update (only the
// minimum counters are incremented), which tightens over-estimates.
func (c *CountMin) Add(f packet.FlowKey) {
	c.total++
	est := c.estimate(f)
	for i := 0; i < c.depth; i++ {
		idx := c.index(i, &f)
		if uint64(c.rows[i][idx]) <= est {
			c.rows[i][idx]++
		}
	}
}

func (c *CountMin) estimate(f packet.FlowKey) uint64 {
	min := uint32(^uint32(0))
	for i := 0; i < c.depth; i++ {
		if v := c.rows[i][c.index(i, &f)]; v < min {
			min = v
		}
	}
	return uint64(min)
}

// Estimate returns the (over-)estimated packet count of flow f.
func (c *CountMin) Estimate(f packet.FlowKey) uint64 { return c.estimate(f) }

// CMTopK couples a CountMin sketch with a small candidate set to answer
// "which flows are currently the top k" — the composition a scheduler
// would actually deploy.
type CMTopK struct {
	cm  *CountMin
	k   int
	set map[packet.FlowKey]uint64 // candidate -> last estimate
}

// NewCMTopK builds a top-k tracker over a width×depth sketch.
func NewCMTopK(width, depth, k int) *CMTopK {
	return &CMTopK{cm: NewCountMin(width, depth), k: k,
		set: make(map[packet.FlowKey]uint64, 2*k)}
}

// Observe records one packet and maintains the candidate set.
func (t *CMTopK) Observe(f packet.FlowKey) {
	t.cm.Add(f)
	est := t.cm.Estimate(f)
	if _, ok := t.set[f]; ok {
		t.set[f] = est
		return
	}
	if len(t.set) < t.k {
		t.set[f] = est
		return
	}
	// Replace the weakest candidate if f now estimates higher. Stored
	// estimates go stale, so re-read the sketch while scanning. Ties
	// break on the key encoding for determinism.
	var minF packet.FlowKey
	minV := uint64(1 << 62)
	first := true
	for g := range t.set {
		v := t.cm.Estimate(g)
		t.set[g] = v
		if v < minV || (v == minV && !first && keyLess(g, minF)) {
			minF, minV = g, v
			first = false
		}
	}
	if est > minV {
		delete(t.set, minF)
		t.set[f] = est
	}
}

// Aggressive returns the current candidate flows (order unspecified).
func (t *CMTopK) Aggressive() []packet.FlowKey {
	out := make([]packet.FlowKey, 0, len(t.set))
	for f := range t.set {
		out = append(out, f)
	}
	return out
}
