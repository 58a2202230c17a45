package cache

import (
	"fmt"

	"laps/internal/flowtab"
)

// lfuNode is one resident entry. Nodes form a doubly-linked list within
// their frequency bucket, ordered by recency (head = most recent).
type lfuNode struct {
	key        Key
	hash       uint16 // cached flow hash, for O(1) index ops at eviction
	count      uint64
	prev, next *lfuNode
	bucket     *lfuBucket
}

// lfuBucket groups all entries that share a reference count. Buckets form
// a doubly-linked list in ascending count order; the first bucket holds
// the eviction candidates.
type lfuBucket struct {
	count      uint64
	head, tail *lfuNode // recency list: head = most recently touched
	prev, next *lfuBucket
	size       int
	gen        uint32 // bumped on free; validates jump-index snapshots
}

// LFU is a least-frequently-used cache with O(1) Touch/Insert/Remove.
// Ties among minimum-count entries are broken by evicting the least
// recently touched, which gives heavy-hitter detection the "inertia"
// the paper relies on.
type LFU struct {
	capacity int
	items    *flowtab.Table[*lfuNode]
	min      *lfuBucket // bucket list head (smallest count), nil when empty
	max      *lfuBucket // bucket list tail (largest count), nil when empty

	// Jump index for interior bucketFor searches. Interior inserts come
	// from victim-cache demotions whose counts are spread across the
	// whole resident range with no locality, so a walk from any single
	// hint averages O(buckets). The index is a periodically rebuilt
	// sorted snapshot of the bucket list; a binary search lands next to
	// the target and the list walk corrects whatever drifted since the
	// snapshot. Freed buckets are detected by generation mismatch.
	jump     []bucketRef
	jumpLeft int // interior searches until the next rebuild

	// Free lists recycle nodes and buckets: the steady state of a full
	// cache is one insert+evict per miss, which would otherwise allocate
	// on every missed packet.
	freeNodes   *lfuNode
	freeBuckets *lfuBucket
}

// NewLFU returns an empty LFU cache. capacity must be >= 1.
func NewLFU(capacity int) *LFU {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: LFU capacity %d < 1", capacity))
	}
	return &LFU{capacity: capacity, items: flowtab.New[*lfuNode](capacity)}
}

// Len returns the number of resident entries.
func (c *LFU) Len() int { return c.items.Len() }

// Count returns the key's count without updating recency.
func (c *LFU) Count(k Key, h uint16) (uint64, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	return n.count, true
}

// Touch increments a resident key's count and returns the new value.
func (c *LFU) Touch(k Key, h uint16) (uint64, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	c.promote(n)
	return n.count, true
}

// TouchN records n references at once. A node touched n times in a row
// passes through the intermediate frequency buckets only to leave them
// again, so jumping straight to the bucket for count+n produces the
// same bucket list and victim order as n single promotions.
func (c *LFU) TouchN(k Key, h uint16, n uint64) (uint64, bool) {
	if n == 0 {
		return c.Count(k, h)
	}
	nd, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	c.promoteN(nd, n)
	return nd.count, true
}

// renumber handles the dominant promote shape O(1): the node is alone
// in its bucket and no bucket exists for the new count, so relabeling
// the bucket in place yields exactly the structure that unlink + fresh
// bucket + relink would. Sparse count regions (every AFC resident, the
// annex's demoted heavies) are all singleton buckets, so this skips the
// free-list round trip on nearly every touch there.
func (c *LFU) renumber(nd *lfuNode, newCount uint64) bool {
	b := nd.bucket
	if b.size != 1 || (b.next != nil && b.next.count <= newCount) {
		return false
	}
	b.count = newCount
	nd.count = newCount
	return true
}

// promoteN moves nd from its bucket to the bucket for count+n.
func (c *LFU) promoteN(nd *lfuNode, n uint64) {
	b := nd.bucket
	newCount := nd.count + n
	if c.renumber(nd, newCount) {
		return
	}
	c.unlinkNode(nd)
	prev := b
	for prev.next != nil && prev.next.count <= newCount {
		prev = prev.next
	}
	target := prev
	if target.count != newCount {
		nb := c.newBucket(newCount)
		c.insertBucketAfter(nb, prev)
		target = nb
	}
	if b.size == 0 {
		c.removeBucket(b)
	}
	nd.count = newCount
	c.pushNode(target, nd)
}

// promote moves n from its bucket to the bucket for count+1.
func (c *LFU) promote(n *lfuNode) {
	b := n.bucket
	target := b.next
	newCount := n.count + 1
	if c.renumber(n, newCount) {
		return
	}
	c.unlinkNode(n)
	if target == nil || target.count != newCount {
		nb := c.newBucket(newCount)
		c.insertBucketAfter(nb, b)
		target = nb
	}
	if b.size == 0 {
		c.removeBucket(b)
	}
	n.count = newCount
	c.pushNode(target, n)
}

// Insert adds k with the given count, evicting the victim if full.
func (c *LFU) Insert(k Key, h uint16, count uint64) (Entry, bool) {
	if n, ok := c.items.Get(k, h); ok {
		// Resident: move to the bucket for the new count.
		b := n.bucket
		c.unlinkNode(n)
		if b.size == 0 {
			c.removeBucket(b)
		}
		n.count = count
		c.pushNode(c.bucketFor(count), n)
		return Entry{}, false
	}
	var evicted Entry
	var did bool
	if c.items.Len() >= c.capacity {
		v := c.min.tail // least recently touched among minimum count
		evicted = Entry{Key: v.key, Hash: v.hash, Count: v.count}
		did = true
		c.deleteNode(v)
	}
	n := c.newNode(k, h, count)
	c.items.Put(k, h, n)
	c.pushNode(c.bucketFor(count), n)
	return evicted, did
}

// newNode takes a node from the free list or allocates one.
func (c *LFU) newNode(k Key, h uint16, count uint64) *lfuNode {
	if n := c.freeNodes; n != nil {
		c.freeNodes = n.next
		n.key, n.hash, n.count, n.prev, n.next, n.bucket = k, h, count, nil, nil, nil
		return n
	}
	return &lfuNode{key: k, hash: h, count: count}
}

// Remove evicts a specific key.
func (c *LFU) Remove(k Key, h uint16) bool {
	n, ok := c.items.Get(k, h)
	if !ok {
		return false
	}
	c.deleteNode(n)
	return true
}

// Find locates a resident key without touching it.
func (c *LFU) Find(k Key, h uint16) (Handle, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return Handle{}, false
	}
	return Handle{node: n, count: &n.count}, true
}

// TouchHandle records n references through a handle, equivalent to
// TouchN minus the index probe.
func (c *LFU) TouchHandle(hd Handle, n uint64) uint64 {
	nd := hd.node.(*lfuNode)
	if n > 0 {
		c.promoteN(nd, n)
	}
	return nd.count
}

// RemoveHandle evicts the entry behind a handle, equivalent to Remove
// minus the index probe.
func (c *LFU) RemoveHandle(hd Handle) {
	c.deleteNode(hd.node.(*lfuNode))
}

// Keys returns resident keys in eviction order (victim first).
func (c *LFU) Keys() []Key {
	keys := make([]Key, 0, c.items.Len())
	for b := c.min; b != nil; b = b.next {
		for n := b.tail; n != nil; n = n.prev {
			keys = append(keys, n.key)
		}
	}
	return keys
}

// Entries returns resident entries in eviction order (victim first).
func (c *LFU) Entries() []Entry {
	es := make([]Entry, 0, c.items.Len())
	for b := c.min; b != nil; b = b.next {
		for n := b.tail; n != nil; n = n.prev {
			es = append(es, Entry{Key: n.key, Hash: n.hash, Count: n.count})
		}
	}
	return es
}

// Reset evicts everything.
func (c *LFU) Reset() {
	c.items.Reset()
	c.min = nil
	c.max = nil
	c.jump = c.jump[:0]
	c.jumpLeft = 0
	c.freeNodes = nil
	c.freeBuckets = nil
}

// bucketRef is one jump-index entry: a bucket and its count and
// generation at snapshot time. A mismatched generation means the bucket
// was freed (and possibly recycled) since the rebuild.
type bucketRef struct {
	count uint64
	b     *lfuBucket
	gen   uint32
}

// jumpRebuildEvery is how many interior searches a snapshot serves
// before it is rebuilt; a search whose correcting walk ran long forces
// an early rebuild. Rebuild walks the whole bucket list, so the
// amortized cost is len(buckets)/jumpRebuildEvery steps per search;
// staleness between rebuilds only lengthens the correcting walk, never
// breaks it.
const (
	jumpRebuildEvery = 256
	jumpStaleWalk    = 16
)

// bucketFor finds or creates the bucket with exactly the given count,
// keeping the bucket list sorted ascending. Both ends are O(1), which
// covers the two dominant insert shapes: fresh flows at count 1 and
// demoted AFC victims whose count exceeds every resident. Interior
// counts (victim-cache demotions at essentially arbitrary resident
// counts) binary-search the jump index for a nearby start, then walk
// the live list to the exact spot.
func (c *LFU) bucketFor(count uint64) *lfuBucket {
	if c.min == nil || count <= c.min.count {
		if c.min != nil && c.min.count == count {
			return c.min
		}
		nb := c.newBucket(count)
		c.insertBucketAfter(nb, nil)
		return nb
	}
	if count >= c.max.count {
		if c.max.count == count {
			return c.max
		}
		nb := c.newBucket(count)
		c.insertBucketAfter(nb, c.max)
		return nb
	}
	// Interior: min.count < count < max.count, so a predecessor bucket
	// exists on both sides of every step below.
	b := c.seek(count)
	steps := 0
	for b.count > count {
		b = b.prev
		steps++
	}
	for b.next != nil && b.next.count <= count {
		b = b.next
		steps++
	}
	if steps > jumpStaleWalk {
		c.jumpLeft = 0 // snapshot has drifted; refresh before the next search
	}
	if b.count == count {
		return b
	}
	nb := c.newBucket(count)
	c.insertBucketAfter(nb, b)
	return nb
}

// seek returns a live bucket near count to start the interior walk
// from. Any live bucket is a correct start — the walk self-corrects —
// so stale snapshot entries cost steps, not correctness.
func (c *LFU) seek(count uint64) *lfuBucket {
	if c.jumpLeft == 0 {
		c.rebuildJump()
	}
	c.jumpLeft--
	// Largest snapshot entry with count <= target.
	lo, hi := 0, len(c.jump)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.jump[mid].count <= count {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// The candidate (or, if freed since the snapshot, its nearest
	// still-live predecessor) starts the walk.
	for i := lo - 1; i >= 0; i-- {
		if r := &c.jump[i]; r.b.gen == r.gen {
			return r.b
		}
	}
	return c.min
}

// rebuildJump snapshots the bucket list into the sorted index.
func (c *LFU) rebuildJump() {
	c.jump = c.jump[:0]
	for b := c.min; b != nil; b = b.next {
		c.jump = append(c.jump, bucketRef{count: b.count, b: b, gen: b.gen})
	}
	c.jumpLeft = jumpRebuildEvery
}

// newBucket takes a bucket from the free list or allocates one.
func (c *LFU) newBucket(count uint64) *lfuBucket {
	if b := c.freeBuckets; b != nil {
		c.freeBuckets = b.next
		b.count, b.head, b.tail, b.prev, b.next, b.size = count, nil, nil, nil, nil, 0
		return b
	}
	return &lfuBucket{count: count}
}

// insertBucketAfter links nb after prev (prev == nil means at the head).
func (c *LFU) insertBucketAfter(nb, prev *lfuBucket) {
	if prev == nil {
		nb.next = c.min
		if c.min != nil {
			c.min.prev = nb
		}
		c.min = nb
		if nb.next == nil {
			c.max = nb
		}
		return
	}
	nb.prev = prev
	nb.next = prev.next
	if prev.next != nil {
		prev.next.prev = nb
	} else {
		c.max = nb
	}
	prev.next = nb
}

func (c *LFU) removeBucket(b *lfuBucket) {
	b.gen++ // invalidate jump-index entries pointing here
	if c.max == b {
		c.max = b.prev
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.min = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev = nil
	b.next = c.freeBuckets
	c.freeBuckets = b
}

// pushNode places n at the head (most recent) of bucket b.
func (c *LFU) pushNode(b *lfuBucket, n *lfuNode) {
	n.bucket = b
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
	b.size++
}

// unlinkNode detaches n from its bucket's recency list.
func (c *LFU) unlinkNode(n *lfuNode) {
	b := n.bucket
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next, n.bucket = nil, nil, nil
	b.size--
}

// deleteNode fully removes n from the cache and recycles it.
func (c *LFU) deleteNode(n *lfuNode) {
	b := n.bucket
	c.unlinkNode(n)
	if b.size == 0 {
		c.removeBucket(b)
	}
	c.items.Delete(n.key, n.hash)
	n.key = Key{}
	n.next = c.freeNodes
	c.freeNodes = n
}
