// Package cache provides small fully-associative software caches with
// pluggable replacement policies. The paper's Aggressive Flow Detector is
// built from two of these: a large LFU "annex cache" feeding a 16-entry
// LFU "Aggressive Flow Cache" (§III-F, "Both AFC and annex cache use
// Least Frequently Used (LFU) replacement policy"). An LRU implementation
// is included for the replacement-policy ablation.
//
// All operations are O(1); the LFU uses the classic frequency-bucket
// list so that finding the minimum-frequency victim never scans.
//
// Keys are flow identifiers and every mutating/lookup operation takes
// the key's CRC16 flow hash alongside it: the hot path (AFD observe per
// sampled packet) already has the hash cached on the packet, and the
// resident-entry index is an open-addressed flowtab keyed by it, so no
// per-operation rehash of the 13-byte key ever happens. Eviction policy
// state (frequency buckets, recency lists) is unchanged from the
// map-backed version — identical operation sequences still produce
// identical eviction decisions.
package cache

import "laps/internal/packet"

// Key is the cache key type: a 5-tuple flow identifier.
type Key = packet.FlowKey

// Entry is a key together with its flow hash and reference count.
type Entry struct {
	Key   Key
	Hash  uint16
	Count uint64
}

// Handle is an opaque reference to one resident entry, obtained from
// Find. It lets a caller that has already located an entry read its
// count, touch it, or remove it without re-probing the index — the AFD
// observe path does all three against the same key. A handle is valid
// only until the next call that can evict or move entries (Insert,
// Remove, RemoveHandle, Reset) on the owning cache; using it across
// such a call, or against a different cache, is undefined.
type Handle struct {
	node  any     // the policy's concrete node
	count *uint64 // the node's reference count
}

// Count returns the entry's reference count without touching it.
func (hd Handle) Count() uint64 { return *hd.count }

// Cache is a fixed-capacity associative cache. Implementations must be
// deterministic: identical operation sequences produce identical
// eviction decisions. The h argument must always be crc.FlowHash(k).
type Cache interface {
	// Len returns the number of resident entries.
	Len() int
	// Count returns the entry's reference count without touching it.
	Count(k Key, h uint16) (uint64, bool)
	// Touch records a reference to a resident key, incrementing its
	// count, and returns the new count. It reports false on a miss.
	Touch(k Key, h uint16) (uint64, bool)
	// TouchN records n references at once, equivalent to n sequential
	// Touch calls: the count advances by n and the policy state ends up
	// exactly where n single touches would leave it. It reports false on
	// a miss; n == 0 degenerates to Count.
	TouchN(k Key, h uint16, n uint64) (uint64, bool)
	// Insert adds a key with an initial count. If the cache is full the
	// policy's victim is evicted and returned. Inserting a resident key
	// overwrites its count. The bool reports whether an eviction happened.
	Insert(k Key, h uint16, count uint64) (Entry, bool)
	// Remove evicts a specific key, reporting whether it was resident.
	Remove(k Key, h uint16) bool
	// Find locates a resident key without touching it and returns a
	// handle for follow-up operations on the same entry, so a caller
	// that inspects a count and then touches or removes the entry pays
	// one index probe instead of one per call.
	Find(k Key, h uint16) (Handle, bool)
	// TouchHandle is TouchN through a handle: the count advances by n
	// and the policy state ends up exactly where n single touches would
	// leave it. n == 0 just reads the count. Returns the new count.
	TouchHandle(hd Handle, n uint64) uint64
	// RemoveHandle is Remove through a handle.
	RemoveHandle(hd Handle)
	// Keys returns the resident keys in the policy's internal order,
	// starting with the next victim. The slice is freshly allocated.
	Keys() []Key
	// Reset evicts everything.
	Reset()
}
