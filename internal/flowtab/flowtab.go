// Package flowtab provides an open-addressed hash table keyed by a
// packet.FlowKey together with its cached CRC16 flow hash. It replaces
// map[packet.FlowKey]V in the per-packet hot paths (fence tables,
// migration table, reorder trackers, per-flow sequence counters) where
// Go's generic map costs an aes-hash of the 13-byte key per operation
// and a bucket walk; here the hash is the one the hardware would have
// computed anyway (§III of the paper), already cached on the packet.
//
// Design:
//
//   - linear probing from home slot uint32(hash)&mask, full-key compare
//     on collision (the 16-bit hash is a coarse filter: with more than
//     65536 resident flows every slot's filter collides somewhere, but
//     the key compare keeps lookups correct — only probe lengths grow);
//   - once the table outgrows the 16-bit hash domain (more than 65536
//     slots), home slots switch to a full-width mix of the key itself:
//     a 16-bit home can only address the low 65536 slots, so a larger
//     table would cluster every entry there and probe chains would
//     degenerate to O(n). Control words still filter on the 16-bit
//     hash; only the probe start point changes, and small tables keep
//     the hash-is-already-computed fast path;
//   - tombstone-free deletion by backward shift (Knuth 6.4 algorithm R),
//     so long-lived tables never degrade and Sweep never leaves debris;
//   - growth at 3/4 occupancy by rehash into a table twice the size.
//     Steady-state workloads that plateau below 3/4 of the allocated
//     slots perform zero allocations per operation.
//
// The zero Table is not ready for use; call New.
package flowtab

import "laps/internal/packet"

// occupied marks a live slot in the control word; the low 16 bits hold
// the entry's flow hash. A control word of 0 means the slot is empty.
const occupied = 1 << 16

// minSlots keeps even tiny tables a few slots wide so the probe loop
// never has to reason about len < 2.
const minSlots = 8

// wideMask is the largest mask the 16-bit cached hash can address. Past
// it, home slots come from keyHash instead.
const wideMask = 0xFFFF

// keyHash mixes the 13 key bytes into 64 bits (splitmix64 finalizer).
// It is only consulted for tables wider than 65536 slots, where the
// cached CRC16 cannot spread entries; correctness never depends on it,
// only probe-chain length.
func keyHash(k packet.FlowKey) uint64 {
	x := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	x ^= (uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto) | 1<<40) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Table is an open-addressed flow table. V is the per-flow value.
// Not safe for concurrent use; callers shard or own the table.
type Table[V any] struct {
	ctrl []uint32 // 0 = empty, occupied|hash otherwise
	keys []packet.FlowKey
	vals []V
	mask uint32
	n    int
}

// New returns a table pre-sized so that hint resident entries stay
// under the 3/4 growth threshold. hint <= 0 yields a minimal table.
func New[V any](hint int) *Table[V] {
	slots := minSlots
	for slots*3 < hint*4 { // hint/slots must stay < 3/4
		slots <<= 1
	}
	t := &Table[V]{}
	t.alloc(slots)
	return t
}

func (t *Table[V]) alloc(slots int) {
	t.ctrl = make([]uint32, slots)
	t.keys = make([]packet.FlowKey, slots)
	t.vals = make([]V, slots)
	t.mask = uint32(slots - 1)
}

// Len returns the number of resident entries.
func (t *Table[V]) Len() int { return t.n }

// Slots returns the current slot count (diagnostics only).
func (t *Table[V]) Slots() int { return len(t.ctrl) }

// home returns k's home slot: the cached 16-bit hash while it can
// address every slot, the full-width key mix once it can't.
func (t *Table[V]) home(k packet.FlowKey, h uint16) uint32 {
	if t.mask <= wideMask {
		return uint32(h) & t.mask
	}
	return uint32(keyHash(k)) & t.mask
}

// find returns the slot index holding k, or the first empty slot in its
// probe sequence when absent.
func (t *Table[V]) find(k packet.FlowKey, h uint16) (uint32, bool) {
	c := occupied | uint32(h)
	i := t.home(k, h)
	for {
		ci := t.ctrl[i]
		if ci == 0 {
			return i, false
		}
		if ci == c && t.keys[i] == k {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// Get returns the value stored for k. h must be the same 16-bit hash of
// k on every call: crc.FlowHash(k), except in tables whose keys share
// CRC16 residues (npsim's reorder tracker and witness, whose flows were
// sharded by CRC16), which pass bits of an independent key hash instead.
func (t *Table[V]) Get(k packet.FlowKey, h uint16) (V, bool) {
	if i, ok := t.find(k, h); ok {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Lookup returns a pointer to k's value slot, or nil when k is absent.
// Unlike Ref it never inserts. The pointer is invalidated as Ref's is.
func (t *Table[V]) Lookup(k packet.FlowKey, h uint16) *V {
	if i, ok := t.find(k, h); ok {
		return &t.vals[i]
	}
	return nil
}

// Has reports whether k is resident.
func (t *Table[V]) Has(k packet.FlowKey, h uint16) bool {
	_, ok := t.find(k, h)
	return ok
}

// Put stores v for k, overwriting any existing value.
func (t *Table[V]) Put(k packet.FlowKey, h uint16, v V) {
	t.Store(t.slot(k, h), k, h, v)
}

// Ref returns a pointer to k's value slot, inserting the zero value
// first when absent. The pointer is invalidated by the next Put, Ref,
// Store, Delete or Sweep; use it for immediate read-modify-write only.
func (t *Table[V]) Ref(k packet.FlowKey, h uint16) *V {
	s := t.slot(k, h)
	if !s.found {
		var zero V
		s.i = t.insert(s.i, k, h, zero)
	}
	return &t.vals[s.i]
}

// Slot is where one probe for a key ended: the key's slot when it was
// resident, else the empty slot an insert of it would take. It is only
// good for Store until the table is next mutated.
type Slot struct {
	i     uint32
	found bool
}

// Found reports whether the probed key was resident.
func (s Slot) Found() bool { return s.found }

// Probe looks k up once for a later Store: it returns k's value (the
// zero value when absent) and the slot the probe ended on. Between the
// two calls the caller may read anything but must mutate nothing —
// no Put, Ref, Store, Delete, Sweep or Reset.
func (t *Table[V]) Probe(k packet.FlowKey, h uint16) (V, Slot) {
	s := t.slot(k, h)
	if s.found {
		return t.vals[s.i], s
	}
	var zero V
	return zero, s
}

// Store stores v for k through s, the Slot of a Probe(k, h) with no
// mutation since: an overwrite in place when k was resident, an insert
// (growing the table when due) when it was not. Either way the probe is
// not repeated, unless the insert grows the table.
func (t *Table[V]) Store(s Slot, k packet.FlowKey, h uint16, v V) {
	if s.found {
		t.vals[s.i] = v
		return
	}
	t.insert(s.i, k, h, v)
}

func (t *Table[V]) slot(k packet.FlowKey, h uint16) Slot {
	i, ok := t.find(k, h)
	return Slot{i: i, found: ok}
}

// insert puts absent k at empty slot i of its probe sequence, growing
// first (and re-probing) when the insert would pass 3/4 occupancy.
// Returns the slot it used.
func (t *Table[V]) insert(i uint32, k packet.FlowKey, h uint16, v V) uint32 {
	if (t.n+1)*4 > len(t.ctrl)*3 {
		t.grow()
		i, _ = t.find(k, h)
	}
	t.ctrl[i] = occupied | uint32(h)
	t.keys[i] = k
	t.vals[i] = v
	t.n++
	return i
}

// Delete removes k, reporting whether it was resident.
func (t *Table[V]) Delete(k packet.FlowKey, h uint16) bool {
	i, ok := t.find(k, h)
	if !ok {
		return false
	}
	t.deleteAt(i)
	return true
}

// deleteAt empties slot i and backward-shifts any displaced entries in
// the probe chain so lookups never need tombstones: an entry at j may
// fill hole i iff its home slot lies at or before i in probe order,
// i.e. (j - home) mod size >= (j - i) mod size.
func (t *Table[V]) deleteAt(i uint32) {
	var zero V
	j := i
	for {
		j = (j + 1) & t.mask
		c := t.ctrl[j]
		if c == 0 {
			break
		}
		home := t.home(t.keys[j], uint16(c))
		if ((j - home) & t.mask) >= ((j - i) & t.mask) {
			t.ctrl[i] = c
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.ctrl[i] = 0
	t.keys[i] = packet.FlowKey{}
	t.vals[i] = zero
	t.n--
}

// Sweep deletes every entry for which drop returns true and reports how
// many were deleted. drop sees each resident entry exactly once, so it
// may have side effects on the entries it drops.
//
// The scan starts just past an empty slot (one exists: occupancy stays
// under 3/4) and goes once round the table. A deletion backward-shifts
// entries from later in the same probe chain into the hole, never from
// an earlier one, and no chain crosses the empty start slot — so an
// entry already visited never moves, and one not yet visited never
// moves behind the scan.
func (t *Table[V]) Sweep(drop func(k packet.FlowKey, h uint16, v V) bool) int {
	start := uint32(0)
	for t.ctrl[start] != 0 {
		start++
	}
	n := t.n
	for i := (start + 1) & t.mask; i != start; i = (i + 1) & t.mask {
		// Re-check slot i after each deletion: backward shift may move
		// another candidate into the hole. Each pass removes one entry,
		// so the inner loop is bounded by the table occupancy.
		for {
			c := t.ctrl[i]
			if c == 0 || !drop(t.keys[i], uint16(c), t.vals[i]) {
				break
			}
			t.deleteAt(i)
		}
	}
	return n - t.n
}

// Range calls fn for every resident entry until fn returns false.
// The table must not be mutated during iteration.
func (t *Table[V]) Range(fn func(k packet.FlowKey, h uint16, v V) bool) {
	for i, c := range t.ctrl {
		if c == 0 {
			continue
		}
		if !fn(t.keys[i], uint16(c), t.vals[i]) {
			return
		}
	}
}

// Reset removes every entry, keeping the allocated slots.
func (t *Table[V]) Reset() {
	clear(t.ctrl)
	clear(t.keys)
	clear(t.vals) // release pointers held in values
	t.n = 0
}

// grow rehashes into a table twice the size.
func (t *Table[V]) grow() {
	oldCtrl, oldKeys, oldVals := t.ctrl, t.keys, t.vals
	t.alloc(len(oldCtrl) * 2)
	for i, c := range oldCtrl {
		if c != 0 {
			t.insertFresh(c, oldKeys[i], oldVals[i])
		}
	}
}

// insertFresh inserts a known-absent entry (rehash path: no dup check).
func (t *Table[V]) insertFresh(c uint32, k packet.FlowKey, v V) {
	i := t.home(k, uint16(c))
	for t.ctrl[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.ctrl[i] = c
	t.keys[i] = k
	t.vals[i] = v
}
