package runtime

// coarseFence is the bounded fallback for a lane's flow routing
// table: one flowState per CRC16 hash value instead of one per flow.
// Past the flow budget, new flows stop being inserted into the exact
// table and are fenced at hash-bucket granularity instead — every flow
// hashing into a bucket follows the bucket's core, and the bucket may
// only switch workers once its recorded seq has been retired there.
//
// Ordering argument (docs/RUNTIME.md, "The lane"): bucket.seq is the
// target worker's handover count at the bucket's last enqueue, which
// bounds the seq of *every* packet any bucket member has in flight.
// Releasing the bucket fence only when retired >= bucket.seq therefore
// guarantees all member packets have retired before any member
// switches workers — the exact fence's zero-OOO-by-construction
// argument, coarsened. The price is scheduling granularity, not
// correctness: colliding flows migrate together and only when the whole
// bucket drains.
//
// Each lane owns one; flows reach exactly one lane, so no locking. Lane
// i of n serves every hash h with h % n == i and stores bucket h/n, a
// bijection within the lane — so one bucket is one hash value, and
// recovery rerouting by hash lands every member of a bucket on the same
// worker.
type coarseFence struct {
	div     int // lane count: bucket index = h / div
	buckets []flowState
}

// newCoarseFence builds the bucket array for a lane serving 1/div
// of the hash space. core == -1 marks an empty bucket.
func newCoarseFence(div int) *coarseFence {
	if div < 1 {
		div = 1
	}
	c := &coarseFence{div: div, buckets: make([]flowState, 0xFFFF/div+1)}
	for i := range c.buckets {
		c.buckets[i].core = -1
	}
	return c
}

// ref returns the bucket for hash h.
func (c *coarseFence) ref(h uint16) *flowState {
	return &c.buckets[int(h)/c.div]
}

// put records the bucket's new route.
func (c *coarseFence) put(h uint16, core int32, seq uint64, fencedAt int64) {
	c.buckets[int(h)/c.div] = flowState{core: core, seq: seq, fencedAt: fencedAt}
}

// sweepDead clears buckets homed on a quarantined worker whose packets
// have all been retired there — the coarse analogue of the recovery
// sweep over the exact table. Buckets with unretired packets keep their
// state: reinjection re-pointed the drained ones, and undrainable ones
// must stay visible so the next packet takes the forced-release path.
func (c *coarseFence) sweepDead(dead int32, retired uint64) {
	for i := range c.buckets {
		if b := &c.buckets[i]; b.core == dead && retired >= b.seq {
			*b = flowState{core: -1}
		}
	}
}
