package packet

import (
	"runtime"
	"sync"
	"testing"
)

// dirty fills every field a recycled descriptor could leak.
func dirty(p *Packet, token uint64) {
	*p = Packet{
		ID: token, Flow: FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP},
		Service: SvcVPNIn, Size: 1500, Arrival: 5, FlowSeq: ^token,
		Hash: 6, HashOK: true, Enqueued: 7, Departed: 8, Migrated: true, ColdMiss: true,
	}
}

// TestPoolConcurrentExclusiveOwnership hammers one pool from several
// getters and several batch-putters. A holder stamps its descriptor
// non-zero, so a descriptor handed out twice shows up as a non-zero Get
// result on the second holder, as a torn stamp at the putter, and —
// under -race — as a reported race on the stamp itself.
func TestPoolConcurrentExclusiveOwnership(t *testing.T) {
	const (
		getters   = 4
		putters   = 3
		perGetter = 30000
		putBatch  = 48 // not a divisor of MagazineSize: batches straddle magazines
	)
	pl := NewPool()
	held := make(chan *Packet, 4*MagazineSize) // getters → putters; bounds the population in flight
	var gets, puts sync.WaitGroup
	for g := 0; g < getters; g++ {
		gets.Add(1)
		go func(g int) {
			defer gets.Done()
			for i := 1; i <= perGetter; i++ {
				p := pl.Get()
				if *p != (Packet{}) {
					t.Errorf("getter %d: Get returned a descriptor in use or not zeroed: %+v", g, *p)
					return
				}
				dirty(p, uint64(g+1)<<32|uint64(i))
				held <- p
			}
		}(g)
	}
	for m := 0; m < putters; m++ {
		puts.Add(1)
		go func() {
			defer puts.Done()
			buf := make([]*Packet, 0, putBatch)
			for p := range held {
				if p.ID == 0 || p.FlowSeq != ^p.ID {
					t.Errorf("putter: stamp overwritten while held: ID=%#x FlowSeq=%#x", p.ID, p.FlowSeq)
					for range held { // keep the getters from blocking on a full channel
					}
					return
				}
				if buf = append(buf, p); len(buf) == putBatch {
					pl.PutBatch(buf)
					buf = buf[:0]
				}
			}
			pl.PutBatch(buf)
		}()
	}
	gets.Wait()
	close(held)
	puts.Wait()
}

// TestPoolGetIsZero recycles dirty descriptors across several magazine
// boundaries through both return paths and both take paths.
func TestPoolGetIsZero(t *testing.T) {
	pl := NewPool()
	const n = 3*MagazineSize + 7
	ps := make([]*Packet, n)
	for round := 0; round < 4; round++ {
		if round%2 == 0 {
			for i := range ps {
				ps[i] = pl.Get()
			}
		} else {
			pl.GetBatch(ps)
		}
		for i, p := range ps {
			if p == nil || *p != (Packet{}) {
				t.Fatalf("round %d: descriptor %d not zero: %+v", round, i, p)
			}
			dirty(p, uint64(i+1))
		}
		if round < 2 {
			for _, p := range ps {
				pl.Put(p)
			}
			continue
		}
		pl.PutBatch(ps)
		for i, p := range ps {
			if p != nil {
				t.Fatalf("round %d: PutBatch left element %d set", round, i)
			}
		}
	}
}

func TestNilPool(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || *p != (Packet{}) {
		t.Fatalf("nil pool Get = %+v, want a zero descriptor", p)
	}
	pl.Put(p)
	pl.Put(nil)
	NewPool().Put(nil)
	ps := make([]*Packet, 5)
	pl.GetBatch(ps)
	for i, q := range ps {
		if q == nil || *q != (Packet{}) {
			t.Fatalf("nil pool GetBatch element %d = %+v", i, q)
		}
	}
	pl.PutBatch(ps)
	for i, q := range ps {
		if q != nil {
			t.Fatalf("nil pool PutBatch left element %d set", i)
		}
	}
	pl.PutBatch(nil)
}

// TestPoolInventoryIsCollectable pins the elasticity heap_mb depends
// on: what an idle pool keeps alive across two collections is its two
// resident magazines, not the population that passed through it.
func TestPoolInventoryIsCollectable(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const population = 100000
	ps := make([]*Packet, population)
	before := heap()
	pl := NewPool()
	pl.GetBatch(ps)
	for i := 0; i < population; i += 32 {
		pl.PutBatch(ps[i : i+32])
	}
	after := heap()
	runtime.KeepAlive(pl)
	runtime.KeepAlive(ps)
	if after > before && after-before >= 64<<10 {
		t.Fatalf("idle pool retains %d bytes after holding %d descriptors, want < 64 KiB", after-before, population)
	}
}

func BenchmarkPoolGetPutBatch(b *testing.B) {
	pl := NewPool()
	var buf [32]*Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(buf) {
		for j := range buf {
			buf[j] = pl.Get()
		}
		pl.PutBatch(buf[:])
	}
}
