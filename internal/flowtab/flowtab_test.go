package flowtab

import (
	"math/rand/v2"
	"testing"

	"laps/internal/crc"
	"laps/internal/packet"
)

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstIP: uint32(i >> 3), SrcPort: uint16(i), Proto: 6}
}

func fh(i int) uint16 { return crc.FlowHash(fk(i)) }

func TestPutGetDelete(t *testing.T) {
	tb := New[int](0)
	if _, ok := tb.Get(fk(1), fh(1)); ok {
		t.Fatal("get on empty table hit")
	}
	tb.Put(fk(1), fh(1), 10)
	tb.Put(fk(2), fh(2), 20)
	tb.Put(fk(1), fh(1), 11) // overwrite
	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	if v, ok := tb.Get(fk(1), fh(1)); !ok || v != 11 {
		t.Fatalf("get(1) = %v,%v", v, ok)
	}
	if !tb.Delete(fk(1), fh(1)) {
		t.Fatal("delete(1) missed")
	}
	if tb.Delete(fk(1), fh(1)) {
		t.Fatal("double delete hit")
	}
	if v, ok := tb.Get(fk(2), fh(2)); !ok || v != 20 {
		t.Fatalf("get(2) after delete(1) = %v,%v", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
}

func TestRef(t *testing.T) {
	tb := New[uint64](4)
	for i := 0; i < 5; i++ {
		*tb.Ref(fk(7), fh(7))++
	}
	if v, _ := tb.Get(fk(7), fh(7)); v != 5 {
		t.Fatalf("counter = %d, want 5", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	tb := New[int](0)
	const n = 10_000
	for i := 0; i < n; i++ {
		tb.Put(fk(i), fh(i), i)
	}
	if tb.Len() != n {
		t.Fatalf("len = %d, want %d", tb.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := tb.Get(fk(i), fh(i)); !ok || v != i {
			t.Fatalf("get(%d) = %v,%v after growth", i, v, ok)
		}
	}
	// Occupancy must respect the 3/4 bound.
	if tb.Len()*4 > tb.Slots()*3 {
		t.Fatalf("occupancy %d/%d above 3/4", tb.Len(), tb.Slots())
	}
}

func TestSweep(t *testing.T) {
	tb := New[int](64)
	for i := 0; i < 100; i++ {
		tb.Put(fk(i), fh(i), i)
	}
	deleted := tb.Sweep(func(_ packet.FlowKey, _ uint16, v int) bool { return v%2 == 0 })
	if deleted != 50 {
		t.Fatalf("sweep deleted %d, want 50", deleted)
	}
	if tb.Len() != 50 {
		t.Fatalf("len = %d, want 50", tb.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := tb.Get(fk(i), fh(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get(%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestRangeAndReset(t *testing.T) {
	tb := New[int](8)
	for i := 0; i < 20; i++ {
		tb.Put(fk(i), fh(i), i)
	}
	sum, visits := 0, 0
	tb.Range(func(k packet.FlowKey, h uint16, v int) bool {
		if h != crc.FlowHash(k) {
			t.Fatalf("stored hash %#x != FlowHash %#x", h, crc.FlowHash(k))
		}
		sum += v
		visits++
		return true
	})
	if visits != 20 || sum != 190 {
		t.Fatalf("range visited %d sum %d, want 20/190", visits, sum)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("len after reset = %d", tb.Len())
	}
	tb.Range(func(packet.FlowKey, uint16, int) bool {
		t.Fatal("range on reset table visited an entry")
		return false
	})
}

// TestQuickAgainstMap drives a random op sequence against both the
// open-addressed table and a shadow Go map and requires identical
// observable behaviour, including after deletions that exercise the
// backward-shift path (keys are drawn from a small space so probe
// chains collide heavily).
func TestQuickAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	tb := New[int](0)
	shadow := make(map[packet.FlowKey]int)
	for op := 0; op < 200_000; op++ {
		i := int(rng.Int32N(512))
		k, h := fk(i), fh(i)
		switch rng.Int32N(4) {
		case 0:
			v := int(rng.Int32N(1 << 20))
			tb.Put(k, h, v)
			shadow[k] = v
		case 1:
			got, ok := tb.Get(k, h)
			want, wok := shadow[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%d) = %v,%v want %v,%v", op, i, got, ok, want, wok)
			}
		case 2:
			if del := tb.Delete(k, h); del != (func() bool { _, ok := shadow[k]; return ok }()) {
				t.Fatalf("op %d: delete(%d) = %v disagrees with shadow", op, i, del)
			}
			delete(shadow, k)
		case 3:
			*tb.Ref(k, h)++
			shadow[k]++
		}
		if tb.Len() != len(shadow) {
			t.Fatalf("op %d: len %d != shadow %d", op, tb.Len(), len(shadow))
		}
	}
	// Final full cross-check both directions.
	for k, want := range shadow {
		if got, ok := tb.Get(k, crc.FlowHash(k)); !ok || got != want {
			t.Fatalf("final: get(%v) = %v,%v want %v", k, got, ok, want)
		}
	}
	count := 0
	tb.Range(func(k packet.FlowKey, _ uint16, v int) bool {
		if shadow[k] != v {
			t.Fatalf("final: range saw %v=%v, shadow %v", k, v, shadow[k])
		}
		count++
		return true
	})
	if count != len(shadow) {
		t.Fatalf("final: range visited %d, shadow %d", count, len(shadow))
	}
}

// TestSweepQuick cross-checks Sweep against map deletion under heavy
// collision pressure.
func TestSweepQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for round := 0; round < 50; round++ {
		tb := New[int](0)
		shadow := make(map[packet.FlowKey]int)
		n := 1 + int(rng.Int32N(300))
		for j := 0; j < n; j++ {
			i := int(rng.Int32N(256))
			tb.Put(fk(i), fh(i), i)
			shadow[fk(i)] = i
		}
		pivot := int(rng.Int32N(256))
		deleted := tb.Sweep(func(_ packet.FlowKey, _ uint16, v int) bool { return v < pivot })
		wantDel := 0
		for k, v := range shadow {
			if v < pivot {
				delete(shadow, k)
				wantDel++
			}
		}
		if deleted != wantDel || tb.Len() != len(shadow) {
			t.Fatalf("round %d: sweep=%d want %d, len=%d want %d",
				round, deleted, wantDel, tb.Len(), len(shadow))
		}
		for k, v := range shadow {
			if got, ok := tb.Get(k, crc.FlowHash(k)); !ok || got != v {
				t.Fatalf("round %d: survivor %v lost", round, k)
			}
		}
	}
}

// TestWideTableSpreadsEntries pins the wide-home mode: past 65536 slots
// the 16-bit cached hash can only address the low 65536 slots, so home
// slots must switch to the full-width key mix or every entry clusters
// there and probes degenerate to O(n). The test grows a table well past
// the 16-bit domain, then checks correctness across growth (which
// rehashes every entry through the narrow→wide transition), deletion
// (backward shift must recompute wide homes from stored keys, not the
// 16-bit ctrl hash), Sweep, and — the actual regression — that the high
// half of the table is populated at all.
func TestWideTableSpreadsEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("wide table test inserts 200k entries")
	}
	const n = 200_000
	tb := New[int](0) // start minimal: growth crosses the 64k boundary
	for i := 0; i < n; i++ {
		tb.Put(fk(i), fh(i), i)
	}
	if tb.Slots() <= wideMask+1 {
		t.Fatalf("table has %d slots, expected growth past %d", tb.Slots(), wideMask+1)
	}
	high := 0
	tb.Range(func(packet.FlowKey, uint16, int) bool { return false }) // exercise early stop
	for i := wideMask + 1; i < tb.Slots(); i++ {
		if tb.ctrl[i] != 0 {
			high++
		}
	}
	// With uniform homes ~3/4 of entries land above slot 65536 in a
	// 262144-slot table; clustered homes put zero there (entries only
	// spill upward by linear probing, bounded by chain length).
	if high < n/4 {
		t.Fatalf("only %d entries above slot %d; wide homes not in effect", high, wideMask)
	}
	// Delete a third, exercising backward shift with wide homes.
	for i := 0; i < n; i += 3 {
		if !tb.Delete(fk(i), fh(i)) {
			t.Fatalf("delete(%d) missed", i)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tb.Get(fk(i), fh(i))
		if want := i%3 != 0; ok != want || (ok && v != i) {
			t.Fatalf("get(%d) = %v,%v after deletions", i, v, ok)
		}
	}
	// Sweep the rest down to one residue class and re-verify.
	tb.Sweep(func(_ packet.FlowKey, _ uint16, v int) bool { return v%3 == 2 })
	for i := 0; i < n; i++ {
		_, ok := tb.Get(fk(i), fh(i))
		if want := i%3 == 1; ok != want {
			t.Fatalf("get(%d) = %v after sweep, want %v", i, ok, want)
		}
	}
}

// TestZeroAllocSteadyState pins the "zero allocs at capacity" claim:
// once the table has grown to fit the working set, Get/Put/Delete/Ref
// allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	tb := New[uint64](1024)
	for i := 0; i < 1024; i++ {
		tb.Put(fk(i), fh(i), uint64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Put(fk(3), fh(3), 99)
		tb.Get(fk(500), fh(500))
		*tb.Ref(fk(700), fh(700))++
		tb.Delete(fk(3), fh(3))
		tb.Put(fk(3), fh(3), 3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkTableGet(b *testing.B) {
	tb := New[uint64](4096)
	keys := make([]packet.FlowKey, 4096)
	hashes := make([]uint16, 4096)
	for i := range keys {
		keys[i], hashes[i] = fk(i), fh(i)
		tb.Put(keys[i], hashes[i], uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		sinkV, _ = tb.Get(keys[j], hashes[j])
	}
}

func BenchmarkMapGet(b *testing.B) {
	m := make(map[packet.FlowKey]uint64, 4096)
	keys := make([]packet.FlowKey, 4096)
	for i := range keys {
		keys[i] = fk(i)
		m[keys[i]] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkV = m[keys[i&4095]]
	}
}

var sinkV uint64

// FuzzFlowtab drives Put/Get/Ref/Has/Delete/Sweep sequences against a
// map, on a small table that grows from 8 slots and on a wide-home one
// (more than 65536 slots, homes from keyHash). The wide table's keys
// all have their homes in its last 48 slots, so probe chains wrap past
// slot 0 and backward shifts cross it. Every operation must agree with
// the map, Len must match after each, and Sweep must offer drop every
// resident entry exactly once.
//
// Input: the first byte picks the table (odd = wide), then each pair of
// bytes is one operation and a key index (Sweep: its drop modulus).
func FuzzFlowtab(f *testing.F) {
	wideSlots := uint32(New[uint32](wideMask + 1).Slots())
	var wide []packet.FlowKey
	for i := 0; len(wide) < 64; i++ {
		if k := fk(i); uint32(keyHash(k))&(wideSlots-1) >= wideSlots-48 {
			wide = append(wide, k)
		}
	}
	small := make([]packet.FlowKey, 64)
	for i := range small {
		small[i] = fk(i)
	}
	f.Add([]byte{0, 0, 1, 0, 2, 2, 5, 0, 7, 0, 9, 5, 1, 3, 2, 4, 9, 5, 2})
	f.Add([]byte{1, 0, 1, 0, 2, 2, 5, 0, 7, 0, 9, 5, 1, 3, 2, 4, 9, 5, 2})
	// A chain wrapped past slot 0 whose head is swept: a scan from slot
	// 0 offers the kept entry behind it twice.
	f.Add([]byte("0000'0\xcdA2"))
	// Probe/Store inserts that grow the table, then a read and a
	// read-modify-write through Probe.
	f.Add([]byte{0, 6, 1, 6, 2, 6, 3, 6, 4, 6, 5, 6, 6, 6, 7, 6, 8, 6, 9, 7, 3, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keys, tb := small, New[uint32](0)
		if data[0]&1 == 1 {
			keys, tb = wide, New[uint32](wideMask+1)
		}
		shadow := make(map[packet.FlowKey]uint32)
		for op := 1; op+1 < len(data); op += 2 {
			arg := int(data[op+1])
			k := keys[arg%len(keys)]
			h := crc.FlowHash(k)
			v := uint32(op)
			want, resident := shadow[k]
			// Odd multiples of 6 take the Probe/Store form of an op.
			probed := data[op]/6%2 == 1
			switch data[op] % 6 {
			case 0:
				if probed {
					_, s := tb.Probe(k, h)
					tb.Store(s, k, h, v)
				} else {
					tb.Put(k, h, v)
				}
				shadow[k] = v
			case 1:
				got, ok := tb.Get(k, h)
				if probed {
					var s Slot
					got, s = tb.Probe(k, h)
					ok = s.Found()
				}
				if ok != resident || got != want {
					t.Fatalf("op %d: Get/Probe = %d,%v, map has %d,%v", op, got, ok, want, resident)
				}
			case 2:
				if probed {
					// Read-modify-write with one probe, as the lane
					// updates a fence entry.
					cur, s := tb.Probe(k, h)
					tb.Store(s, k, h, cur+v)
				} else {
					*tb.Ref(k, h) += v
				}
				shadow[k] += v
			case 3:
				if tb.Has(k, h) != resident {
					t.Fatalf("op %d: Has = %v, map has %v", op, !resident, resident)
				}
			case 4:
				if tb.Delete(k, h) != resident {
					t.Fatalf("op %d: Delete = %v, map has %v", op, !resident, resident)
				}
				delete(shadow, k)
			case 5:
				m := uint32(arg%4 + 1)
				visits := make(map[packet.FlowKey]int)
				n := tb.Sweep(func(k packet.FlowKey, h uint16, v uint32) bool {
					visits[k]++
					if want, ok := shadow[k]; !ok || want != v || h != crc.FlowHash(k) {
						t.Fatalf("op %d: Sweep offered %v=%d (hash %#x), map has %d,%v", op, k, v, h, want, ok)
					}
					return v%m == 0
				})
				for k, c := range visits {
					if c != 1 {
						t.Fatalf("op %d: Sweep offered %v %d times", op, k, c)
					}
				}
				if len(visits) != len(shadow) {
					t.Fatalf("op %d: Sweep offered %d entries, %d resident", op, len(visits), len(shadow))
				}
				dropped := 0
				for k, v := range shadow {
					if v%m == 0 {
						delete(shadow, k)
						dropped++
					}
				}
				if n != dropped {
					t.Fatalf("op %d: Sweep reports %d dropped, want %d", op, n, dropped)
				}
			}
			if tb.Len() != len(shadow) {
				t.Fatalf("op %d: Len %d, map has %d", op, tb.Len(), len(shadow))
			}
		}
		tb.Range(func(k packet.FlowKey, _ uint16, v uint32) bool {
			if want, ok := shadow[k]; !ok || want != v {
				t.Fatalf("Range saw %v=%d, map has %d,%v", k, v, want, ok)
			}
			return true
		})
	})
}
