package runtime

import (
	"sync"
	"testing"

	"laps/internal/packet"
)

func mkPkts(n int) []*packet.Packet {
	ps := make([]*packet.Packet, n)
	for i := range ps {
		ps[i] = &packet.Packet{ID: uint64(i + 1)}
	}
	return ps
}

func TestRingRoundsCapacity(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {32, 32}, {33, 64},
	} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// push and pop move one packet through the batch calls.
func push(r *Ring, p *packet.Packet) bool { return r.PushBatch([]*packet.Packet{p}) == 1 }

func pop(r *Ring) *packet.Packet {
	var out [1]*packet.Packet
	if r.PopBatch(out[:]) == 0 {
		return nil
	}
	return out[0]
}

func TestRingPushPopFIFO(t *testing.T) {
	r := NewRing(4)
	ps := mkPkts(4)
	for _, p := range ps {
		if !push(r, p) {
			t.Fatal("push into non-full ring failed")
		}
	}
	if push(r, &packet.Packet{}) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i, want := range ps {
		got := pop(r)
		if got != want {
			t.Fatalf("pop %d: got %v, want %v", i, got, want)
		}
	}
	if pop(r) != nil {
		t.Fatal("pop from empty ring returned a packet")
	}
}

func TestRingBatchOps(t *testing.T) {
	r := NewRing(8)
	ps := mkPkts(13)
	if n := r.PushBatch(ps); n != 8 {
		t.Fatalf("PushBatch accepted %d, want 8", n)
	}
	out := make([]*packet.Packet, 5)
	if n := r.PopBatch(out); n != 5 {
		t.Fatalf("PopBatch took %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if out[i] != ps[i] {
			t.Fatalf("batch order broken at %d", i)
		}
	}
	if n := r.PushBatch(ps[8:]); n != 5 {
		t.Fatalf("PushBatch after partial drain accepted %d, want 5", n)
	}
	// Drain everything; order must be 5..7 then 8..12.
	want := append(append([]*packet.Packet{}, ps[5:8]...), ps[8:]...)
	for i, w := range want {
		if got := pop(r); got != w {
			t.Fatalf("drain order broken at %d: got %v", i, got)
		}
	}
}

// TestRingSPSCStress hammers one producer against one consumer and
// checks that every packet arrives exactly once, in order. Run under
// -race this validates the ring's publication safety.
func TestRingSPSCStress(t *testing.T) {
	const total = 200000
	r := NewRing(128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch := make([]*packet.Packet, 16)
		id := uint64(1)
		for id <= total {
			n := 0
			for n < len(batch) && id <= total {
				batch[n] = &packet.Packet{ID: id}
				id++
				n++
			}
			sent := 0
			for sent < n {
				sent += r.PushBatch(batch[sent:n])
			}
		}
		r.Close()
	}()
	var got uint64
	go func() {
		defer wg.Done()
		buf := make([]*packet.Packet, 16)
		next := uint64(1)
		for {
			n := r.PopBatch(buf)
			if n == 0 {
				if r.Closed() && r.Len() == 0 {
					break
				}
				continue
			}
			for i := 0; i < n; i++ {
				if buf[i].ID != next {
					t.Errorf("out of order: got %d, want %d", buf[i].ID, next)
					return
				}
				next++
			}
			got = next - 1
		}
	}()
	wg.Wait()
	if got != total {
		t.Fatalf("consumer saw %d packets, want %d", got, total)
	}
}
