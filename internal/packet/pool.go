package packet

import "sync"

// MagazineSize is how many descriptors cross between goroutines at a
// time: the pool's unit of exchange, and the natural size for a
// caller-local cache refilled with GetBatch.
const MagazineSize = 64

// magazine is a fixed-size stack of free descriptors, the unit the get
// side and the put side hand each other.
type magazine struct {
	n  int
	ps [MagazineSize]*Packet
}

// side is one end of the pool: a mutex and the magazine it guards,
// padded so the getters' line and the putters' line never share.
type side struct {
	mu  sync.Mutex
	mag *magazine
	_   [48]byte
}

// Pool recycles Packet descriptors so the live engine's steady state
// performs zero heap allocations per packet: ingress takes descriptors
// from the pool and the owning worker returns them at retirement (see
// docs/PERFORMANCE.md for the ownership rules — nothing may hold a
// *Packet after handing it back).
//
// Descriptors are always taken on one goroutine (the dispatcher) and
// returned on others (the workers), the pattern sync.Pool's per-P
// caches are slowest at: every Get misses locally and steals with a
// CAS. So the pool keeps two magazines of its own — getters pop from
// one, putters push onto the other, each behind its own mutex — and
// only whole magazines travel through sync.Pool, one cross-core
// exchange per MagazineSize descriptors. What the pool itself pins is
// those two magazines; everything else is sync.Pool inventory the
// collector may drop.
//
// A nil *Pool is valid and simply allocates on Get / discards on Put,
// so call sites do not need to branch on whether pooling is enabled.
type Pool struct {
	get, put side
	full     sync.Pool // *magazine, n == MagazineSize: putters → getters
	empty    sync.Pool // *magazine, n == 0: getters → putters
}

// NewPool returns an empty packet pool.
func NewPool() *Pool {
	pl := &Pool{}
	pl.get.mag, pl.put.mag = new(magazine), new(magazine)
	return pl
}

// take pops one descriptor, swapping in a full magazine when the
// loaded one runs out; nil when the pool has none to give. Caller
// holds get.mu.
func (pl *Pool) take() *Packet {
	m := pl.get.mag
	if m.n == 0 {
		f, _ := pl.full.Get().(*magazine)
		if f == nil {
			return nil
		}
		pl.empty.Put(m)
		pl.get.mag, m = f, f
	}
	m.n--
	p := m.ps[m.n]
	m.ps[m.n] = nil
	return p
}

// give zeroes p and pushes it, sending the magazine to the getters when
// it fills. Caller holds put.mu.
func (pl *Pool) give(p *Packet) {
	*p = Packet{}
	m := pl.put.mag
	m.ps[m.n] = p
	m.n++
	if m.n == MagazineSize {
		pl.full.Put(m)
		e, _ := pl.empty.Get().(*magazine)
		if e == nil {
			e = new(magazine)
		}
		pl.put.mag = e
	}
}

// Get returns a zeroed packet descriptor.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return new(Packet)
	}
	pl.get.mu.Lock()
	p := pl.take()
	pl.get.mu.Unlock()
	if p == nil {
		p = new(Packet)
	}
	return p
}

// GetBatch fills dst with zeroed descriptors under one lock — the
// refill for a caller-local magazine.
func (pl *Pool) GetBatch(dst []*Packet) {
	i := 0
	if pl != nil {
		pl.get.mu.Lock()
		for ; i < len(dst); i++ {
			if dst[i] = pl.take(); dst[i] == nil {
				break
			}
		}
		pl.get.mu.Unlock()
	}
	for ; i < len(dst); i++ {
		dst[i] = new(Packet)
	}
}

// Put returns p to the pool. The caller must not retain any reference:
// the descriptor is zeroed here and will be reused by a future Get.
// Put(nil) is a no-op.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.put.mu.Lock()
	pl.give(p)
	pl.put.mu.Unlock()
}

// PutBatch returns every descriptor in ps under one lock and clears the
// slice's elements, so the caller's reused buffer never aliases a
// recycled descriptor. Same contract as Put: nothing may retain a
// *Packet from ps after the call. Nil elements are skipped.
func (pl *Pool) PutBatch(ps []*Packet) {
	if pl != nil {
		pl.put.mu.Lock()
		for _, p := range ps {
			if p != nil {
				pl.give(p)
			}
		}
		pl.put.mu.Unlock()
	}
	for i := range ps {
		ps[i] = nil
	}
}
