// Package lru implements the least-recently-used replacement policy
// shared by every cache in the system: workstation DRAM page frames,
// file-block caches (client, server, and cooperative), and the network
// RAM pager. It is a plain map + intrusive doubly-linked list, O(1) per
// operation, with an explicit capacity in entries.
package lru

// Cache is an LRU cache mapping keys to values with a fixed capacity.
// The zero value is not usable; create caches with New.
type Cache[K comparable, V any] struct {
	capacity int
	entries  map[K]*entry[K, V]
	// Sentinel-based circular list: head.next is most recent,
	// head.prev is least recent.
	head entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New creates an LRU cache holding at most capacity entries
// (capacity must be positive). The table grows on first touch rather
// than being sized to capacity up front: most caches in a large
// simulated cluster (a node's page table, say) stay nearly empty.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	c := &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*entry[K, V]),
	}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// Get returns the value for k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Peek returns the value for k without touching recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put inserts or updates k, marking it most recently used. If the
// insertion evicts the LRU entry, Put returns it with evicted=true.
// A full cache reuses the evicted entry for k, so steady-state
// replacement does not allocate.
func (c *Cache[K, V]) Put(k K, v V) (evictedKey K, evictedVal V, evicted bool) {
	if e, ok := c.entries[k]; ok {
		e.val = v
		c.moveToFront(e)
		return evictedKey, evictedVal, false
	}
	var e *entry[K, V]
	if len(c.entries) >= c.capacity {
		e = c.head.prev
		c.unlink(e)
		delete(c.entries, e.key)
		evictedKey, evictedVal, evicted = e.key, e.val, true
	} else {
		e = &entry[K, V]{}
	}
	e.key, e.val = k, v
	c.entries[k] = e
	c.linkFront(e)
	return evictedKey, evictedVal, evicted
}

// Remove deletes k, reporting whether it was resident.
func (c *Cache[K, V]) Remove(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	delete(c.entries, k)
	return e.val, true
}

// Keys returns all resident keys from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, len(c.entries))
	for e := c.head.next; e != &c.head; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// Resize changes the capacity, evicting LRU entries as needed, and
// returns the evicted keys (oldest first). Used when an idle
// workstation's memory is reclaimed for its returning user.
func (c *Cache[K, V]) Resize(capacity int) []K {
	if capacity <= 0 {
		capacity = 1
	}
	c.capacity = capacity
	var evicted []K
	for len(c.entries) > c.capacity {
		lru := c.head.prev
		c.unlink(lru)
		delete(c.entries, lru.key)
		evicted = append(evicted, lru.key)
	}
	return evicted
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	c.unlink(e)
	c.linkFront(e)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) linkFront(e *entry[K, V]) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}
