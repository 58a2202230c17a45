package cache

import (
	"fmt"

	"laps/internal/flowtab"
)

// lruNode is one resident entry on the recency list.
type lruNode struct {
	key        Key
	hash       uint16
	count      uint64
	prev, next *lruNode
}

// LRU is a least-recently-used cache with the same interface as LFU.
// Reference counts are still maintained (Touch increments) so the AFD's
// promotion threshold works identically; only the eviction choice
// differs. Used by the replacement-policy ablation (DESIGN.md §5).
type LRU struct {
	capacity   int
	items      *flowtab.Table[*lruNode]
	head, tail *lruNode // head = most recent, tail = next victim
	free       *lruNode // recycled nodes
}

// NewLRU returns an empty LRU cache. capacity must be >= 1.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: LRU capacity %d < 1", capacity))
	}
	return &LRU{capacity: capacity, items: flowtab.New[*lruNode](capacity)}
}

// Len returns the number of resident entries.
func (c *LRU) Len() int { return c.items.Len() }

// Count returns the key's count without updating recency.
func (c *LRU) Count(k Key, h uint16) (uint64, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	return n.count, true
}

// Touch increments the key's count and moves it to the front.
func (c *LRU) Touch(k Key, h uint16) (uint64, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	n.count++
	c.moveToFront(n)
	return n.count, true
}

// TouchN records n references at once: the count advances by n and the
// node moves to the front, exactly where n sequential touches leave it.
func (c *LRU) TouchN(k Key, h uint16, n uint64) (uint64, bool) {
	if n == 0 {
		return c.Count(k, h)
	}
	nd, ok := c.items.Get(k, h)
	if !ok {
		return 0, false
	}
	nd.count += n
	c.moveToFront(nd)
	return nd.count, true
}

// Insert adds k with the given count, evicting the tail if full.
func (c *LRU) Insert(k Key, h uint16, count uint64) (Entry, bool) {
	if n, ok := c.items.Get(k, h); ok {
		n.count = count
		c.moveToFront(n)
		return Entry{}, false
	}
	var evicted Entry
	var did bool
	if c.items.Len() >= c.capacity {
		v := c.tail
		evicted = Entry{Key: v.key, Hash: v.hash, Count: v.count}
		did = true
		c.unlink(v)
		c.items.Delete(v.key, v.hash)
		v.key = Key{}
		v.next = c.free
		c.free = v
	}
	var n *lruNode
	if c.free != nil {
		n = c.free
		c.free = n.next
		n.key, n.hash, n.count, n.prev, n.next = k, h, count, nil, nil
	} else {
		n = &lruNode{key: k, hash: h, count: count}
	}
	c.items.Put(k, h, n)
	c.pushFront(n)
	return evicted, did
}

// Remove evicts a specific key.
func (c *LRU) Remove(k Key, h uint16) bool {
	n, ok := c.items.Get(k, h)
	if !ok {
		return false
	}
	c.unlink(n)
	c.items.Delete(k, h)
	return true
}

// Find locates a resident key without touching it.
func (c *LRU) Find(k Key, h uint16) (Handle, bool) {
	n, ok := c.items.Get(k, h)
	if !ok {
		return Handle{}, false
	}
	return Handle{node: n, count: &n.count}, true
}

// TouchHandle records n references through a handle, equivalent to
// TouchN minus the index probe.
func (c *LRU) TouchHandle(hd Handle, n uint64) uint64 {
	nd := hd.node.(*lruNode)
	if n > 0 {
		nd.count += n
		c.moveToFront(nd)
	}
	return nd.count
}

// RemoveHandle evicts the entry behind a handle, equivalent to Remove
// minus the index probe.
func (c *LRU) RemoveHandle(hd Handle) {
	nd := hd.node.(*lruNode)
	c.unlink(nd)
	c.items.Delete(nd.key, nd.hash)
}

// Keys returns resident keys in eviction order (victim first).
func (c *LRU) Keys() []Key {
	keys := make([]Key, 0, c.items.Len())
	for n := c.tail; n != nil; n = n.prev {
		keys = append(keys, n.key)
	}
	return keys
}

// Reset evicts everything.
func (c *LRU) Reset() {
	c.items.Reset()
	c.head, c.tail = nil, nil
	c.free = nil
}

func (c *LRU) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *LRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
