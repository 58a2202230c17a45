// Package migtable implements the migration table: a small bounded map
// from flow ID to an override core that takes priority over the hash map
// table ("The scheduler gives priority to the output of migration table
// over the default hash table", §III-A). Real designs bound this table,
// so entries are evicted FIFO when it fills.
//
// The table is keyed by the flow's cached CRC16 hash (an open-addressed
// flowtab, not a Go map): the scheduler consults it once per packet, so
// the lookup must not rehash the 13-byte 5-tuple.
package migtable

import (
	"laps/internal/flowtab"
	"laps/internal/packet"
)

// orderSlot remembers a FIFO position together with the key's hash so
// eviction never rehashes.
type orderSlot struct {
	key  packet.FlowKey
	hash uint16
}

// Table is a bounded flow→core override map. The zero value is invalid;
// use New.
type Table struct {
	cap int
	m   *flowtab.Table[int32]
	// order is the FIFO insertion order: exactly one slot per live key,
	// oldest first (RemoveCore drops the slots of the keys it removes).
	order []orderSlot
	gen   uint64 // bumped on every map mutation (see Generation)

	// Snapshot cache: valid while gen is unchanged.
	snap      *flowtab.Table[int32]
	snapGen   uint64
	snapValid bool
}

// New builds a table holding at most capacity entries.
func New(capacity int) *Table {
	if capacity < 1 {
		panic("migtable: capacity must be >= 1")
	}
	return &Table{
		cap: capacity,
		m:   flowtab.New[int32](capacity),
	}
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.m.Len() }

// Generation is a monotonic counter of map mutations: inserts, updates,
// evictions, removals and resets all bump it. Snapshot consumers
// republish when it changes.
func (t *Table) Generation() uint64 { return t.gen }

// Snapshot returns the live flow→core overrides, or nil when there are
// none — callers treat a nil snapshot as "no overrides" and skip the
// lookup entirely.
//
// The returned table is SHARED: consecutive calls return the same
// pointer until a mutation invalidates it. Callers must treat it as
// immutable.
func (t *Table) Snapshot() *flowtab.Table[int32] {
	if t.snapValid && t.snapGen == t.gen {
		return t.snap
	}
	var out *flowtab.Table[int32]
	t.m.Range(func(f packet.FlowKey, h uint16, core int32) bool {
		if out == nil {
			out = flowtab.New[int32](t.m.Len())
		}
		out.Put(f, h, core)
		return true
	})
	t.snap, t.snapGen, t.snapValid = out, t.gen, true
	return out
}

// GetH returns the override core for f, whose flow hash is h (cached on
// the packet on the dispatch path).
func (t *Table) GetH(f packet.FlowKey, h uint16) (int, bool) {
	core, ok := t.m.Get(f, h)
	return int(core), ok
}

// PutH records that flow f, whose flow hash is h, is migrated to core.
// Re-putting an existing flow updates it in place without consuming a
// new FIFO slot.
func (t *Table) PutH(f packet.FlowKey, h uint16, core int) {
	t.gen++
	if t.m.Has(f, h) {
		t.m.Put(f, h, int32(core))
		return
	}
	if t.m.Len() >= t.cap {
		t.dropOldest()
	}
	t.m.Put(f, h, int32(core))
	t.order = append(t.order, orderSlot{key: f, hash: h})
}

// dropOldest evicts the oldest live key. Every order slot names a live
// key, so the front slot is the victim.
func (t *Table) dropOldest() {
	s := t.order[0]
	t.order = t.order[1:]
	t.m.Delete(s.key, s.hash)
	t.gen++
}

// RemoveCore drops every override pointing at the given core — used when
// a core is reallocated to another service — together with the removed
// keys' order slots. Returns how many were removed.
func (t *Table) RemoveCore(core int) int {
	n := t.m.Sweep(func(_ packet.FlowKey, _ uint16, c int32) bool {
		return int(c) == core
	})
	if n == 0 {
		return 0
	}
	kept := t.order[:0]
	for _, s := range t.order {
		if t.m.Has(s.key, s.hash) {
			kept = append(kept, s)
		}
	}
	t.order = kept
	t.gen += uint64(n)
	return n
}

// Reset clears the table.
func (t *Table) Reset() {
	t.m.Reset()
	t.order = t.order[:0]
	t.gen++
}
