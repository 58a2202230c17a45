// Package sketch holds the seeded flow-key hash that the egress
// tracker's witness samples on (KeyHash) and the bounded-memory
// ReorderSketch that the benchmark ladder still prices.
package sketch

import "laps/internal/packet"

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keyWords packs a flow key into the two words KeyHash mixes: the
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
