// Package migtable implements the migration table: a small bounded map
// from flow ID to an override core that takes priority over the hash map
// table ("The scheduler gives priority to the output of migration table
// over the default hash table", §III-A). Real designs bound this table,
// so entries are evicted FIFO when it fills, and can optionally age out
// so long-lived flows eventually fall back to their hash home.
//
// The table is keyed by the flow's cached CRC16 hash (an open-addressed
// flowtab, not a Go map): the scheduler consults it once per packet, so
// the lookup must not rehash the 13-byte 5-tuple. Methods without an
// explicit hash parameter compute it on the spot and exist for cold
// paths and tests; the dispatcher uses the *H variants.
package migtable

import (
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
)

type entry struct {
	core  int32
	added sim.Time
}

// orderSlot remembers a FIFO position together with the key's hash so
// eviction never rehashes.
type orderSlot struct {
	key  packet.FlowKey
	hash uint16
}

// Table is a bounded flow→core override map. The zero value is invalid;
// use New.
type Table struct {
	cap   int
	ttl   sim.Time // 0 disables aging
	m     *flowtab.Table[entry]
	order []orderSlot // FIFO insertion order (may contain stale keys)
	gen   uint64      // bumped on every map mutation (see Generation)

	// Snapshot cache: valid while gen is unchanged and, with TTL aging,
	// while now is still before the earliest expiry baked into it
	// (entries age out without a gen bump until a GetH collects them).
	snap      *flowtab.Table[int32]
	snapGen   uint64
	snapExp   sim.Time
	snapValid bool
}

// New builds a table holding at most capacity entries. ttl > 0 enables
// aging: entries expire ttl after insertion.
func New(capacity int, ttl sim.Time) *Table {
	if capacity < 1 {
		panic("migtable: capacity must be >= 1")
	}
	return &Table{
		cap: capacity,
		ttl: ttl,
		m:   flowtab.New[entry](capacity),
	}
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.m.Len() }

// Generation is a monotonic counter of map mutations: inserts, updates,
// TTL expirations, removals and resets all bump it. Snapshot consumers
// republish when it changes.
func (t *Table) Generation() uint64 { return t.gen }

// Snapshot returns the live flow→core overrides as of now, or nil when
// there are none — callers treat a nil snapshot as "no overrides" and
// skip the lookup entirely. Entries past their TTL are skipped but NOT
// deleted, so taking a snapshot never mutates override state (expiry
// still happens on GetH; the mutation counter is not bumped).
//
// The returned table is SHARED: consecutive calls return the same
// pointer until a mutation (or, under TTL aging, the earliest baked-in
// expiry) invalidates it. Callers must treat it as immutable.
func (t *Table) Snapshot(now sim.Time) *flowtab.Table[int32] {
	if t.snapValid && t.snapGen == t.gen && (t.ttl == 0 || now < t.snapExp) {
		return t.snap
	}
	var out *flowtab.Table[int32]
	minExp := sim.Time(0)
	t.m.Range(func(f packet.FlowKey, h uint16, e entry) bool {
		if t.ttl > 0 {
			exp := e.added + t.ttl
			if now >= exp {
				return true
			}
			if minExp == 0 || exp < minExp {
				minExp = exp
			}
		}
		if out == nil {
			out = flowtab.New[int32](t.m.Len())
		}
		out.Put(f, h, e.core)
		return true
	})
	t.snap, t.snapGen, t.snapExp, t.snapValid = out, t.gen, minExp, true
	return out
}

// GetH returns the override core for f, whose flow hash is h (cached on
// the packet on the dispatch path), honouring TTL expiry.
func (t *Table) GetH(f packet.FlowKey, h uint16, now sim.Time) (int, bool) {
	e, ok := t.m.Get(f, h)
	if !ok {
		return 0, false
	}
	if t.ttl > 0 && now-e.added >= t.ttl {
		t.m.Delete(f, h)
		t.gen++
		return 0, false
	}
	return int(e.core), true
}

// PutH records that flow f, whose flow hash is h, is migrated to core.
// Re-putting an existing flow updates it in place (refreshing its TTL)
// without consuming a new FIFO slot.
func (t *Table) PutH(f packet.FlowKey, h uint16, core int, now sim.Time) {
	t.gen++
	if t.m.Has(f, h) {
		t.m.Put(f, h, entry{core: int32(core), added: now})
		return
	}
	for t.m.Len() >= t.cap {
		t.dropOldest()
	}
	t.m.Put(f, h, entry{core: int32(core), added: now})
	t.order = append(t.order, orderSlot{key: f, hash: h})
}

// dropOldest pops FIFO-order keys until one that is still live is
// removed (keys already expired or updated leave stale order slots).
func (t *Table) dropOldest() {
	for len(t.order) > 0 {
		s := t.order[0]
		t.order = t.order[1:]
		if t.m.Delete(s.key, s.hash) {
			t.gen++
			return
		}
	}
	// Order exhausted but map non-empty can only happen if callers
	// removed entries directly; drop an arbitrary entry. Capture the
	// key during Range and delete after it returns — flowtab forbids
	// mutating the table mid-iteration.
	var (
		victimKey  packet.FlowKey
		victimHash uint16
		found      bool
	)
	t.m.Range(func(f packet.FlowKey, h uint16, _ entry) bool {
		victimKey, victimHash, found = f, h, true
		return false
	})
	if found && t.m.Delete(victimKey, victimHash) {
		t.gen++
	}
}

// RemoveCore drops every override pointing at the given core — used when
// a core is reallocated to another service. Returns how many were
// removed.
func (t *Table) RemoveCore(core int) int {
	n := t.m.Sweep(func(_ packet.FlowKey, _ uint16, e entry) bool {
		return int(e.core) == core
	})
	t.gen += uint64(n)
	return n
}

// Reset clears the table.
func (t *Table) Reset() {
	t.m.Reset()
	t.order = t.order[:0]
	t.gen++
}
