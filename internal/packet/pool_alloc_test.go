//go:build !race

// Excluded under the race detector, whose instrumentation allocates on
// its own and whose sync.Pool drops a share of Puts by design.

package packet

import "testing"

// TestPoolZeroAllocSteadyState: once the population exists, a
// Get-a-burst / PutBatch cycle — the dispatcher/worker shape — moves
// magazines between the two sides without allocating descriptors or
// magazines.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	pl := NewPool()
	warm := make([]*Packet, 4*MagazineSize)
	pl.GetBatch(warm)
	pl.PutBatch(warm)
	var buf [32]*Packet
	avg := testing.AllocsPerRun(2000, func() {
		for i := range buf {
			buf[i] = pl.Get()
		}
		pl.PutBatch(buf[:])
	})
	if avg != 0 {
		t.Fatalf("steady-state Get+PutBatch allocates %.3f per cycle, want 0", avg)
	}
}

// TestPoolRecycles: the pool hands back what it was given rather than
// allocating afresh, and PutBatch skips nil elements.
func TestPoolRecycles(t *testing.T) {
	pl := NewPool()
	ps := make([]*Packet, 4*MagazineSize+2)
	pl.GetBatch(ps)
	seen := make(map[*Packet]bool, len(ps))
	for _, p := range ps {
		seen[p] = true
	}
	ps[3], ps[len(ps)-1] = nil, nil
	pl.PutBatch(ps)
	// One magazine can sit in a sync.Pool private slot of a P this
	// goroutine has since left; most of four must come back.
	recycled := 0
	for i := 0; i < 4*MagazineSize; i++ {
		if seen[pl.Get()] {
			recycled++
		}
	}
	if recycled < 2*MagazineSize {
		t.Fatalf("%d of %d descriptors recycled, want at least %d", recycled, 4*MagazineSize, 2*MagazineSize)
	}
}

// TestFreeListZeroAllocSteadyState: the simulator's free list hands the
// same descriptors round once its stack has grown to the working set.
func TestFreeListZeroAllocSteadyState(t *testing.T) {
	fl := NewFreeList()
	var buf [32]*Packet
	cycle := func() {
		for i := range buf {
			buf[i] = fl.Get()
		}
		for _, p := range buf {
			fl.Put(p)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("steady-state Get/Put allocates %.3f per cycle, want 0", avg)
	}
}
