package migtable

import (
	"testing"
	"testing/quick"

	"laps/internal/crc"
	"laps/internal/packet"
	"laps/internal/sim"
)

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), Proto: 6}
}

// put and get hash f the way the dispatch path does before PutH/GetH.
func put(tb *Table, f packet.FlowKey, core int, now sim.Time) {
	tb.PutH(f, crc.FlowHash(f), core, now)
}

func get(tb *Table, f packet.FlowKey, now sim.Time) (int, bool) {
	return tb.GetH(f, crc.FlowHash(f), now)
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 0) did not panic")
		}
	}()
	New(0, 0)
}

func TestPutGet(t *testing.T) {
	tb := New(4, 0)
	put(tb, fk(1), 7, 0)
	if c, ok := get(tb, fk(1), 10); !ok || c != 7 {
		t.Fatalf("Get = %d,%v, want 7,true", c, ok)
	}
	if _, ok := get(tb, fk(2), 10); ok {
		t.Fatal("Get hit for absent flow")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tb := New(2, 0)
	put(tb, fk(1), 1, 0)
	put(tb, fk(1), 2, 5)
	if c, _ := get(tb, fk(1), 10); c != 2 {
		t.Fatalf("core = %d after update, want 2", c)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after in-place update", tb.Len())
	}
}

func TestFIFOEviction(t *testing.T) {
	tb := New(3, 0)
	for i := 1; i <= 5; i++ {
		put(tb, fk(i), i, sim.Time(i))
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	// Oldest two (1, 2) evicted.
	for i := 1; i <= 2; i++ {
		if _, ok := get(tb, fk(i), 10); ok {
			t.Fatalf("flow %d survived FIFO eviction", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if _, ok := get(tb, fk(i), 10); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	if tb.evicts != 2 {
		t.Fatalf("evictions = %d, want 2", tb.evicts)
	}
}

func TestTTLExpiry(t *testing.T) {
	tb := New(4, 100)
	put(tb, fk(1), 3, 0)
	if _, ok := get(tb, fk(1), 99); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := get(tb, fk(1), 100); ok {
		t.Fatal("entry survived past TTL")
	}
	if tb.Len() != 0 {
		t.Fatal("expired entry still counted")
	}
}

func TestTTLRefreshOnPut(t *testing.T) {
	tb := New(4, 100)
	put(tb, fk(1), 3, 0)
	put(tb, fk(1), 3, 80) // refresh
	if _, ok := get(tb, fk(1), 150); !ok {
		t.Fatal("refreshed entry expired from original timestamp")
	}
}

func TestEvictionSkipsStaleOrderSlots(t *testing.T) {
	tb := New(2, 50)
	put(tb, fk(1), 1, 0)
	put(tb, fk(2), 2, 0)
	// Expire flow 1 via TTL (leaves a stale order slot).
	if _, ok := get(tb, fk(1), 60); ok {
		t.Fatal("setup: ttl failed")
	}
	put(tb, fk(3), 3, 60)
	put(tb, fk(4), 4, 60) // must evict flow 2, skipping stale slot for 1
	if _, ok := get(tb, fk(2), 61); ok {
		t.Fatal("flow 2 survived, stale slot not skipped")
	}
	if _, ok := get(tb, fk(3), 61); !ok {
		t.Fatal("flow 3 wrongly evicted")
	}
	if _, ok := get(tb, fk(4), 61); !ok {
		t.Fatal("flow 4 missing")
	}
}

func TestRemoveCore(t *testing.T) {
	tb := New(8, 0)
	put(tb, fk(1), 1, 0)
	put(tb, fk(2), 1, 0)
	put(tb, fk(3), 2, 0)
	if n := tb.RemoveCore(1); n != 2 {
		t.Fatalf("RemoveCore = %d, want 2", n)
	}
	if _, ok := get(tb, fk(3), 0); !ok {
		t.Fatal("flow on other core removed")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestReset(t *testing.T) {
	tb := New(4, 0)
	put(tb, fk(1), 1, 0)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	put(tb, fk(2), 2, 0)
	if _, ok := get(tb, fk(2), 0); !ok {
		t.Fatal("table unusable after Reset")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	tb := New(16, 10)
	for i := 0; i < 1000; i++ {
		put(tb, fk(i%50), i%8, sim.Time(i))
		if tb.Len() > 16 {
			t.Fatalf("Len %d exceeds capacity at step %d", tb.Len(), i)
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	tb := New(1024, 0)
	for i := 0; i < b.N; i++ {
		put(tb, fk(i%2048), i%16, sim.Time(i))
		get(tb, fk((i+1024)%2048), sim.Time(i))
	}
}

func TestQuickProperties(t *testing.T) {
	// Property: capacity never exceeded; a Get immediately after Put
	// returns the put core (no TTL in play).
	f := func(ops []uint16) bool {
		tb := New(8, 0)
		for i, op := range ops {
			flow := fk(int(op % 32))
			core := int(op % 7)
			put(tb, flow, core, sim.Time(i))
			if got, ok := get(tb, flow, sim.Time(i)); !ok || got != core {
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

func TestQuickTTLNeverServesExpired(t *testing.T) {
	f := func(puts []uint8, probe uint8) bool {
		const ttl = 50
		tb := New(16, ttl)
		when := map[packet.FlowKey]sim.Time{}
		now := sim.Time(0)
		for _, p := range puts {
			now += sim.Time(p % 40)
			flow := fk(int(p % 8))
			put(tb, flow, int(p%4), now)
			when[flow] = now
		}
		now += sim.Time(probe)
		for flow, putAt := range when {
			_, ok := get(tb, flow, now)
			if ok && now-putAt >= ttl {
				return false // served an expired entry
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
