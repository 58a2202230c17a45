package migtable

import (
	"testing"
	"testing/quick"

	"laps/internal/crc"
	"laps/internal/packet"
)

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), Proto: 6}
}

// put and get hash f the way the dispatch path does before PutH/GetH.
func put(tb *Table, f packet.FlowKey, core int) {
	tb.PutH(f, crc.FlowHash(f), core)
}

func get(tb *Table, f packet.FlowKey) (int, bool) {
	return tb.GetH(f, crc.FlowHash(f))
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestPutGet(t *testing.T) {
	tb := New(4)
	put(tb, fk(1), 7)
	if c, ok := get(tb, fk(1)); !ok || c != 7 {
		t.Fatalf("Get = %d,%v, want 7,true", c, ok)
	}
	if _, ok := get(tb, fk(2)); ok {
		t.Fatal("Get hit for absent flow")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tb := New(2)
	put(tb, fk(1), 1)
	put(tb, fk(1), 2)
	if c, _ := get(tb, fk(1)); c != 2 {
		t.Fatalf("core = %d after update, want 2", c)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after in-place update", tb.Len())
	}
}

func TestFIFOEviction(t *testing.T) {
	tb := New(3)
	for i := 1; i <= 5; i++ {
		put(tb, fk(i), i)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	// Oldest two (1, 2) evicted.
	for i := 1; i <= 2; i++ {
		if _, ok := get(tb, fk(i)); ok {
			t.Fatalf("flow %d survived FIFO eviction", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if _, ok := get(tb, fk(i)); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
}

// TestEvictionSkipsStaleOrderSlots removes the oldest flow through
// RemoveCore; the next eviction must take the oldest flow still present.
func TestEvictionSkipsStaleOrderSlots(t *testing.T) {
	tb := New(2)
	put(tb, fk(1), 1)
	put(tb, fk(2), 2)
	if n := tb.RemoveCore(1); n != 1 {
		t.Fatalf("setup: RemoveCore = %d, want 1", n)
	}
	put(tb, fk(3), 3)
	put(tb, fk(4), 4) // must evict flow 2, the oldest present
	if _, ok := get(tb, fk(2)); ok {
		t.Fatal("flow 2 survived, stale slot not skipped")
	}
	if _, ok := get(tb, fk(3)); !ok {
		t.Fatal("flow 3 wrongly evicted")
	}
	if _, ok := get(tb, fk(4)); !ok {
		t.Fatal("flow 4 missing")
	}
}

func TestRemoveCore(t *testing.T) {
	tb := New(8)
	put(tb, fk(1), 1)
	put(tb, fk(2), 1)
	put(tb, fk(3), 2)
	if n := tb.RemoveCore(1); n != 2 {
		t.Fatalf("RemoveCore = %d, want 2", n)
	}
	if _, ok := get(tb, fk(3)); !ok {
		t.Fatal("flow on other core removed")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

// TestRemoveCoreDropsOrderSlots repeats a core steal many times: the
// FIFO order must not keep a slot for any removed flow.
func TestRemoveCoreDropsOrderSlots(t *testing.T) {
	const flows = 16
	tb := New(flows)
	for round := 0; round < 10000; round++ {
		for i := 0; i < flows; i++ {
			put(tb, fk(round*flows+i), 1)
		}
		if n := tb.RemoveCore(1); n != flows {
			t.Fatalf("round %d: RemoveCore = %d, want %d", round, n, flows)
		}
		if len(tb.order) != 0 {
			t.Fatalf("round %d: %d order slots left in an empty table", round, len(tb.order))
		}
	}
}

// TestReputAfterRemoveCoreIsYoungest re-puts a flow that RemoveCore
// dropped: it must queue behind every flow put before it.
func TestReputAfterRemoveCoreIsYoungest(t *testing.T) {
	tb := New(2)
	put(tb, fk(1), 1) // a
	tb.RemoveCore(1)
	put(tb, fk(2), 2) // b
	put(tb, fk(1), 3) // a again, now younger than b
	put(tb, fk(3), 3) // c evicts the oldest: b
	if _, ok := get(tb, fk(2)); ok {
		t.Fatal("b survived; the re-put a was evicted in its place")
	}
	for _, i := range []int{1, 3} {
		if _, ok := get(tb, fk(i)); !ok {
			t.Fatalf("flow %d evicted", i)
		}
	}
}

func TestReset(t *testing.T) {
	tb := New(4)
	put(tb, fk(1), 1)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	put(tb, fk(2), 2)
	if _, ok := get(tb, fk(2)); !ok {
		t.Fatal("table unusable after Reset")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	tb := New(16)
	for i := 0; i < 1000; i++ {
		put(tb, fk(i%50), i%8)
		if i%97 == 0 {
			tb.RemoveCore(i % 8)
		}
		if tb.Len() > 16 {
			t.Fatalf("Len %d exceeds capacity at step %d", tb.Len(), i)
		}
		if len(tb.order) != tb.Len() {
			t.Fatalf("step %d: %d order slots for %d entries", i, len(tb.order), tb.Len())
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	tb := New(1024)
	for i := 0; i < b.N; i++ {
		put(tb, fk(i%2048), i%16)
		get(tb, fk((i+1024)%2048))
	}
}

func TestQuickProperties(t *testing.T) {
	// Property: capacity never exceeded; a Get immediately after Put
	// returns the put core.
	f := func(ops []uint16) bool {
		tb := New(8)
		for _, op := range ops {
			flow := fk(int(op % 32))
			core := int(op % 7)
			put(tb, flow, core)
			if got, ok := get(tb, flow); !ok || got != core {
				return false
			}
			if tb.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
