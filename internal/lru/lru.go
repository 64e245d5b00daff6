// Package lru is the bounded least-recently-used map every cache in the
// engine and service layers is built on: compiled programs, result and
// point caches, the body memo, and the artifact store's trace and
// platform tiers. Keys are strings (content digests in practice); values
// are treated as immutable by convention, so callers must not modify
// what Get returns. Safe for concurrent use.
package lru

import (
	"container/list"
	"sync"
)

// Cache is one LRU map. The zero value is not usable; create one with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses uint64
}

type entry[V any] struct {
	key   string
	value V
}

// New returns a cache holding at most capacity entries; capacity <= 0
// disables caching (every Get misses, Put is a no-op).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the value stored under key, marking it most recently used
// and counting a hit or a miss.
func (c *Cache[V]) Get(key string) (V, bool) { return c.get(key, true) }

// TryGet is Get for a lookup whose miss the caller follows with Get: a
// hit counts and refreshes recency as Get's does, a miss is not counted.
func (c *Cache[V]) TryGet(key string) (V, bool) { return c.get(key, false) }

func (c *Cache[V]) get(key string, countMiss bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).value, true
}

// Contains reports whether key is present, without touching its recency
// or the hit/miss counters.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts (or refreshes) key as the most recently used entry,
// evicting least recently used entries to stay within capacity.
func (c *Cache[V]) Put(key string, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry[V]{key: key, value: value})
	for c.order.Len() > c.capacity {
		last := c.order.Remove(c.order.Back()).(*entry[V])
		delete(c.entries, last.key)
	}
}

// SetCapacity changes the capacity; entries beyond it go at the next
// Put of a new key.
func (c *Cache[V]) SetCapacity(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
}

// Full reports whether inserting a new key would evict an entry.
func (c *Cache[V]) Full() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len() >= c.capacity
}

// Delete drops key, reporting whether it was present.
func (c *Cache[V]) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	return true
}

// Len reports how many entries are cached.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the lifetime hit/miss counts of Get.
func (c *Cache[V]) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Range calls fn for every entry, most recently used first, without
// touching recency or counters. It walks a snapshot, so fn runs outside
// the cache's lock.
func (c *Cache[V]) Range(fn func(key string, value V)) {
	c.mu.Lock()
	snap := make([]entry[V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*entry[V]))
	}
	c.mu.Unlock()
	for _, e := range snap {
		fn(e.key, e.value)
	}
}
