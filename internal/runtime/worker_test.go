package runtime

import (
	"sync/atomic"
	"testing"

	"laps/internal/packet"
	"laps/internal/sim"
)

// TestQueueLenCoversBatchInService pins the two halves of the batched
// retirement counters' safety argument from inside a batch: while
// packet k of the stream is in its handler, packets k.. are unretired,
// so queueLen (what the scheduler and the health monitor read) must
// count at least that many, and retired[src] (what a fence reads) must
// not have run ahead of what was actually retired.
func TestQueueLenCoversBatchInService(t *testing.T) {
	const total, batch = 112, 32 // three full batches and a short one
	ring := NewRing(128)
	w := &worker{
		rings:   []*Ring{ring},
		retired: make([]atomic.Uint64, 1),
		tracker: newSharedTracker(0),
		now:     func() sim.Time { return 0 },
		pool:    packet.NewPool(),
	}
	handled := 0
	w.handler = func(_ int, _ *packet.Packet) {
		if got, want := w.queueLen(), total-handled; got < want {
			t.Errorf("packet %d in service: queueLen = %d, under-reports the %d unretired packets", handled, got, want)
		}
		if got := w.retired[0].Load(); got > uint64(handled) {
			t.Errorf("packet %d in service: retired = %d runs ahead of the %d actually retired", handled, got, handled)
		}
		handled++
	}
	for i := 0; i < total; i++ {
		p := w.pool.Get()
		p.ID, p.Flow.SrcIP, p.FlowSeq = uint64(i+1), uint32(i%5), uint64(i/5)
		if !push(ring, p) {
			t.Fatalf("ring rejected packet %d", i)
		}
	}
	ring.Close()
	w.run(batch) // returns once the closed ring is drained
	if handled != total || w.processed.Load() != total || w.retired[0].Load() != total {
		t.Fatalf("handled %d, processed %d, retired %d, want %d each", handled, w.processed.Load(), w.retired[0].Load(), total)
	}
	if w.queueLen() != 0 || w.ooo.Load() != 0 {
		t.Fatalf("after drain: queueLen %d, ooo %d, want 0 and 0", w.queueLen(), w.ooo.Load())
	}
}
