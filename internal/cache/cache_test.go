package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"laps/internal/crc"
)

// ck builds a distinct flow key from a small integer id (recoverable
// via kid) so the behaviour tests read like their map-era versions.
func ck(i int) Key { return Key{SrcIP: uint32(i), DstIP: uint32(i) << 7, SrcPort: 443, Proto: 6} }

// chash returns the flow hash every cache operation must be given.
func chash(i int) uint16 { return crc.FlowHash(ck(i)) }

// kid recovers the integer id ck encoded.
func kid(k Key) int { return int(k.SrcIP) }

// entries reads c's resident entries in eviction order (victim first),
// hashes as stored, without touching any.
func entries(c Cache) []Entry {
	switch c := c.(type) {
	case *LFU:
		return c.Entries()
	case *LRU:
		var es []Entry
		for n := c.tail; n != nil; n = n.prev {
			es = append(es, Entry{Key: n.key, Hash: n.hash, Count: n.count})
		}
		return es
	}
	panic("unknown cache policy")
}

// victim returns the entry c's next Insert into a full cache evicts.
func victim(c Cache) (Entry, bool) {
	es := entries(c)
	if len(es) == 0 {
		return Entry{}, false
	}
	return es[0], true
}

// constructors under test; every generic behaviour test runs against both.
var constructors = map[string]func(capacity int) Cache{
	"LFU": func(c int) Cache { return NewLFU(c) },
	"LRU": func(c int) Cache { return NewLRU(c) },
}

func TestCapacityPanics(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("capacity 0 did not panic")
				}
			}()
			mk(0)
		})
	}
}

func TestEmptyCache(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(4)
			if c.Len() != 0 {
				t.Fatalf("Len=%d, want 0", c.Len())
			}
			if _, ok := victim(c); ok {
				t.Fatal("empty cache has a victim")
			}
			if _, ok := c.Touch(ck(1), chash(1)); ok {
				t.Fatal("Touch hit on empty cache")
			}
			if _, ok := c.Count(ck(1), chash(1)); ok {
				t.Fatal("Count hit on empty cache")
			}
			if c.Remove(ck(1), chash(1)) {
				t.Fatal("Remove succeeded on empty cache")
			}
			if len(c.Keys()) != 0 {
				t.Fatal("Keys non-empty on empty cache")
			}
		})
	}
}

func TestInsertAndTouch(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(4)
			if _, ev := c.Insert(ck(7), chash(7), 1); ev {
				t.Fatal("insert into empty cache evicted")
			}
			if n, ok := c.Count(ck(7), chash(7)); !ok || n != 1 {
				t.Fatalf("Count(7) = %d,%v, want 1,true", n, ok)
			}
			if n, ok := c.Touch(ck(7), chash(7)); !ok || n != 2 {
				t.Fatalf("Touch(7) = %d,%v, want 2,true", n, ok)
			}
			if n, _ := c.Count(ck(7), chash(7)); n != 2 {
				t.Fatalf("Count after touch = %d, want 2", n)
			}
		})
	}
}

func TestInsertResidentOverwritesCount(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(4)
			c.Insert(ck(7), chash(7), 1)
			c.Touch(ck(7), chash(7))
			c.Insert(ck(7), chash(7), 10)
			if n, _ := c.Count(ck(7), chash(7)); n != 10 {
				t.Fatalf("count = %d, want 10", n)
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d, want 1 (no duplicate)", c.Len())
			}
		})
	}
}

func TestLenNeverExceedsCap(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(8)
			for i := 0; i < 100; i++ {
				c.Insert(ck(i), chash(i), 1)
				if c.Len() > 8 {
					t.Fatalf("Len %d exceeds capacity 8", c.Len())
				}
			}
			if c.Len() != 8 {
				t.Fatalf("Len = %d, want 8", c.Len())
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(4)
			c.Insert(ck(1), chash(1), 1)
			c.Insert(ck(2), chash(2), 1)
			if !c.Remove(ck(1), chash(1)) {
				t.Fatal("Remove(1) failed")
			}
			if _, ok := c.Count(ck(1), chash(1)); ok {
				t.Fatal("removed key still resident")
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d, want 1", c.Len())
			}
			if c.Remove(ck(1), chash(1)) {
				t.Fatal("double Remove succeeded")
			}
		})
	}
}

func TestReset(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(4)
			for i := 0; i < 4; i++ {
				c.Insert(ck(i), chash(i), uint64(i+1))
			}
			c.Reset()
			if c.Len() != 0 {
				t.Fatalf("Len = %d after Reset", c.Len())
			}
			c.Insert(ck(9), chash(9), 1) // still usable
			if c.Len() != 1 {
				t.Fatal("cache unusable after Reset")
			}
		})
	}
}

func TestEntryCarriesHash(t *testing.T) {
	// Evicted/victim entries must carry the stored flow hash so the AFD
	// can demote victims without rehashing.
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(2)
			c.Insert(ck(1), chash(1), 1)
			c.Insert(ck(2), chash(2), 2)
			if v, ok := victim(c); !ok || v.Hash != crc.FlowHash(v.Key) {
				t.Fatalf("victim hash %#04x != FlowHash %#04x", v.Hash, crc.FlowHash(v.Key))
			}
			ev, did := c.Insert(ck(3), chash(3), 3)
			if !did || ev.Hash != crc.FlowHash(ev.Key) {
				t.Fatalf("evicted hash %#04x != FlowHash %#04x", ev.Hash, crc.FlowHash(ev.Key))
			}
			for _, e := range entries(c) {
				if e.Hash != crc.FlowHash(e.Key) {
					t.Fatalf("entry hash %#04x != FlowHash %#04x", e.Hash, crc.FlowHash(e.Key))
				}
			}
		})
	}
}

func TestLFUEvictsMinimumCount(t *testing.T) {
	c := NewLFU(3)
	c.Insert(ck(1), chash(1), 1)
	c.Insert(ck(2), chash(2), 1)
	c.Insert(ck(3), chash(3), 1)
	c.Touch(ck(1), chash(1))
	c.Touch(ck(1), chash(1))
	c.Touch(ck(2), chash(2))
	// counts: 1->3, 2->2, 3->1. Victim must be 3.
	if v, _ := victim(c); kid(v.Key) != 3 {
		t.Fatalf("victim = %d, want 3", kid(v.Key))
	}
	ev, did := c.Insert(ck(4), chash(4), 1)
	if !did || kid(ev.Key) != 3 || ev.Count != 1 {
		t.Fatalf("evicted %+v (did=%v), want key 3 count 1", ev, did)
	}
}

func TestLFUTieBreakIsLRU(t *testing.T) {
	c := NewLFU(3)
	c.Insert(ck(1), chash(1), 1)
	c.Insert(ck(2), chash(2), 1)
	c.Insert(ck(3), chash(3), 1)
	c.Touch(ck(1), chash(1)) // 1 now count 2
	c.Touch(ck(2), chash(2)) // 2 now count 2
	c.Touch(ck(3), chash(3)) // 3 now count 2 — all tied; 1 was touched longest ago
	if v, _ := victim(c); kid(v.Key) != 1 {
		t.Fatalf("victim = %d, want 1 (least recently touched among ties)", kid(v.Key))
	}
}

func TestLFUVictimAlwaysMinimum(t *testing.T) {
	// Property: after any op sequence, the victim's count is <= every
	// resident count.
	f := func(ops []uint8) bool {
		c := NewLFU(8)
		for _, op := range ops {
			key := int(op % 16)
			switch {
			case op < 128:
				if _, ok := c.Touch(ck(key), chash(key)); !ok {
					c.Insert(ck(key), chash(key), 1)
				}
			case op < 200:
				c.Insert(ck(key), chash(key), uint64(op%5)+1)
			default:
				c.Remove(ck(key), chash(key))
			}
			v, ok := victim(c)
			if !ok {
				if c.Len() != 0 {
					return false
				}
				continue
			}
			for _, e := range entries(c) {
				if e.Count < v.Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLFUInternalConsistency(t *testing.T) {
	// Random workout, then verify Entries() agrees with a shadow map.
	rng := rand.New(rand.NewPCG(42, 43))
	c := NewLFU(32)
	shadow := map[int]uint64{}
	for i := 0; i < 20000; i++ {
		key := int(rng.Int32N(100))
		switch rng.Int32N(10) {
		case 0:
			if c.Remove(ck(key), chash(key)) {
				delete(shadow, key)
			}
		default:
			if n, ok := c.Touch(ck(key), chash(key)); ok {
				shadow[key] = n
			} else {
				if ev, did := c.Insert(ck(key), chash(key), 1); did {
					delete(shadow, kid(ev.Key))
				}
				shadow[key] = 1
			}
		}
	}
	if c.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow = %d", c.Len(), len(shadow))
	}
	for _, e := range entries(c) {
		if shadow[kid(e.Key)] != e.Count {
			t.Fatalf("key %d count %d, shadow %d", kid(e.Key), e.Count, shadow[kid(e.Key)])
		}
	}
}

func TestLFUKeysOrderedByCount(t *testing.T) {
	c := NewLFU(8)
	for i := 0; i < 8; i++ {
		c.Insert(ck(i), chash(i), 1)
		for j := 0; j < i; j++ {
			c.Touch(ck(i), chash(i))
		}
	}
	es := entries(c)
	for i := 1; i < len(es); i++ {
		if es[i].Count < es[i-1].Count {
			t.Fatalf("Entries not in ascending count order: %v", es)
		}
	}
	if kid(es[0].Key) != 0 {
		t.Fatalf("first entry (victim) = %d, want 0", kid(es[0].Key))
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(3)
	c.Insert(ck(1), chash(1), 1)
	c.Insert(ck(2), chash(2), 1)
	c.Insert(ck(3), chash(3), 1)
	c.Touch(ck(1), chash(1)) // order now (MRU→LRU): 1,3,2
	ev, did := c.Insert(ck(4), chash(4), 1)
	if !did || kid(ev.Key) != 2 {
		t.Fatalf("evicted %+v, want key 2", ev)
	}
	if v, _ := victim(c); kid(v.Key) != 3 {
		t.Fatalf("victim = %d, want 3", kid(v.Key))
	}
}

func TestLRUIgnoresFrequency(t *testing.T) {
	c := NewLRU(2)
	c.Insert(ck(1), chash(1), 1)
	for i := 0; i < 100; i++ {
		c.Touch(ck(1), chash(1))
	}
	c.Insert(ck(2), chash(2), 1)
	c.Touch(ck(2), chash(2))
	// 1 is hot but least recent → LRU evicts it; LFU would not.
	ev, _ := c.Insert(ck(3), chash(3), 1)
	if kid(ev.Key) != 1 {
		t.Fatalf("LRU evicted %d, want 1", kid(ev.Key))
	}
}

func TestKeysMatchEntries(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			c := mk(8)
			for i := 0; i < 12; i++ {
				c.Insert(ck(i), chash(i), uint64(i%3)+1)
			}
			keys := c.Keys()
			entries := entries(c)
			if len(keys) != len(entries) {
				t.Fatalf("len(Keys)=%d len(Entries)=%d", len(keys), len(entries))
			}
			for i := range keys {
				if keys[i] != entries[i].Key {
					t.Fatalf("order mismatch at %d: %v vs %v", i, keys, entries)
				}
			}
		})
	}
}

func TestDeterministicEvictionSequence(t *testing.T) {
	// Identical op sequences must yield identical eviction sequences —
	// required for reproducible simulations.
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			run := func() []int {
				rng := rand.New(rand.NewPCG(5, 6))
				c := mk(16)
				var evs []int
				for i := 0; i < 5000; i++ {
					k := int(rng.Int32N(64))
					if _, ok := c.Touch(ck(k), chash(k)); !ok {
						if ev, did := c.Insert(ck(k), chash(k), 1); did {
							evs = append(evs, kid(ev.Key))
						}
					}
				}
				return evs
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("eviction %d differs: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

func TestLFUHotKeysSurviveChurn(t *testing.T) {
	// The property the AFD depends on: a few hot keys survive a storm of
	// one-hit wonders in an LFU cache.
	c := NewLFU(16)
	hot := []int{1000, 1001, 1002, 1003}
	for _, h := range hot {
		c.Insert(ck(h), chash(h), 1)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 100000; i++ {
		for _, h := range hot {
			c.Touch(ck(h), chash(h))
		}
		k := int(rng.Int32N(1 << 20))
		if _, ok := c.Touch(ck(k), chash(k)); !ok {
			c.Insert(ck(k), chash(k), 1)
		}
	}
	for _, h := range hot {
		if _, ok := c.Count(ck(h), chash(h)); !ok {
			t.Fatalf("hot key %d evicted by churn", h)
		}
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	// A full cache in insert+evict churn must not allocate: this is the
	// per-missed-packet path of the AFD annex.
	c := NewLFU(256)
	for i := 0; i < 4096; i++ {
		c.Insert(ck(i), chash(i), 1)
	}
	keys := make([]Key, 1024)
	hashes := make([]uint16, 1024)
	for i := range keys {
		keys[i], hashes[i] = ck(i+5000), chash(i+5000)
	}
	n := 0
	allocs := testing.AllocsPerRun(2000, func() {
		j := n & 1023
		n++
		if _, ok := c.Touch(keys[j], hashes[j]); !ok {
			c.Insert(keys[j], hashes[j], 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkLFUTouchHit(b *testing.B) {
	c := NewLFU(1024)
	keys := make([]Key, 1024)
	hashes := make([]uint16, 1024)
	for i := range keys {
		keys[i], hashes[i] = ck(i), chash(i)
		c.Insert(keys[i], hashes[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(keys[i&1023], hashes[i&1023])
	}
}

func BenchmarkLFUInsertEvict(b *testing.B) {
	c := NewLFU(1024)
	keys := make([]Key, 8192)
	hashes := make([]uint16, 8192)
	for i := range keys {
		keys[i], hashes[i] = ck(i), chash(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(keys[i&8191], hashes[i&8191], 1)
	}
}

func BenchmarkLRUTouchHit(b *testing.B) {
	c := NewLRU(1024)
	keys := make([]Key, 1024)
	hashes := make([]uint16, 1024)
	for i := range keys {
		keys[i], hashes[i] = ck(i), chash(i)
		c.Insert(keys[i], hashes[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(keys[i&1023], hashes[i&1023])
	}
}

// TestTouchNMatchesSequentialTouches pins the Cache interface's TouchN
// contract on both policies: after any mixed sequence of inserts and
// touches, a cache driven with TouchN(n) must hold the same entries in
// the same eviction order as one driven with n sequential Touches.
func TestTouchNMatchesSequentialTouches(t *testing.T) {
	for name, mk := range constructors {
		t.Run(name, func(t *testing.T) {
			seq, bat := mk(8), mk(8)
			r := rand.New(rand.NewPCG(5, 17))
			for op := 0; op < 3000; op++ {
				i := int(r.Uint64() % 24)
				n := uint64(r.Uint64() % 7) // includes n == 0 (degenerates to Count)
				if r.Uint64()%4 == 0 {
					seq.Insert(ck(i), chash(i), 1)
					bat.Insert(ck(i), chash(i), 1)
					continue
				}
				var sc uint64
				var sok bool
				for j := uint64(0); j < n; j++ {
					sc, sok = seq.Touch(ck(i), chash(i))
				}
				if n == 0 {
					sc, sok = seq.Count(ck(i), chash(i))
				}
				bc, bok := bat.TouchN(ck(i), chash(i), n)
				if sc != bc || sok != bok {
					t.Fatalf("op %d: TouchN(%d) returned (%d,%v), sequential gave (%d,%v)", op, n, bc, bok, sc, sok)
				}
			}
			se, be := entries(seq), entries(bat)
			if len(se) != len(be) {
				t.Fatalf("resident counts diverge: %d vs %d", len(se), len(be))
			}
			for i := range se {
				if se[i] != be[i] {
					t.Fatalf("entry %d diverges: %+v vs %+v", i, se[i], be[i])
				}
			}
		})
	}
}
