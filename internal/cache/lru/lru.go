// Package lru implements a cost-budgeted least-recently-used store: the
// eviction core shared by the domestic proxy's content cache (costs are
// response bytes) and the simulated browser's content cache (cost 1 per
// URL, bounding what was previously an unbounded map).
//
// The package is dependency-free and fully deterministic: eviction order
// is a pure function of the sequence of Get/Add calls, never of map
// iteration or clock readings. A Cache is not safe for concurrent use;
// callers guard it with their own lock (the sharded content cache holds a
// per-shard mutex, the browser its own).
package lru

import "container/list"

// EvictFunc observes an entry evicted to make room for a newer one. It is
// not called for explicit Remove or Clear.
type EvictFunc func(key string, value any, cost int64)

type entry struct {
	key   string
	value any
	cost  int64
}

// Cache is a cost-budgeted LRU map.
type Cache struct {
	budget  int64
	used    int64
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	onEvict EvictFunc
}

// New creates a cache holding at most budget total cost. onEvict may be
// nil.
func New(budget int64, onEvict EvictFunc) *Cache {
	if budget <= 0 {
		panic("lru: budget must be positive")
	}
	return &Cache{
		budget:  budget,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		onEvict: onEvict,
	}
}

// Get returns the value for key and promotes it to most recently used.
func (c *Cache) Get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Peek returns the value for key without promoting it.
func (c *Cache) Peek(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).value, true
}

// Add inserts (or replaces) key, evicting least-recently-used entries
// until the budget holds. It reports whether the entry was admitted: an
// entry costing more than the whole budget is rejected rather than
// allowed to flush everything else.
func (c *Cache) Add(key string, value any, cost int64) bool {
	if cost < 0 {
		panic("lru: negative cost")
	}
	if cost > c.budget {
		// Too big to ever fit; also drop any stale version under this key.
		c.Remove(key)
		return false
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.used += cost - e.cost
		e.value, e.cost = value, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, value: value, cost: cost})
		c.used += cost
	}
	for c.used > c.budget {
		c.evictOldest()
	}
	return true
}

// Remove deletes key, reporting whether it was present.
func (c *Cache) Remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, key)
	c.used -= e.cost
	return true
}

// Clear drops every entry without running the eviction callback.
func (c *Cache) Clear() {
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

// Keys returns the resident keys, most recently used first. The order is
// deterministic: a pure function of the preceding Get/Add/Remove
// sequence, never of map iteration.
func (c *Cache) Keys() []string {
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}

// Len returns the number of entries.
func (c *Cache) Len() int { return c.ll.Len() }

// Used returns the total cost of resident entries.
func (c *Cache) Used() int64 { return c.used }

func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.used -= e.cost
	if c.onEvict != nil {
		c.onEvict(e.key, e.value, e.cost)
	}
}
