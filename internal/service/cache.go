package service

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, fingerprint-keyed least-recently-used cache with
// hit/miss/eviction counters. It is the one cache structure behind every
// layer of the solver — response cache, distance-table cache, topology
// cache — so the bookkeeping (and its tests) exist exactly once. Safe for
// concurrent use.
type lruCache[V any] struct {
	mu sync.Mutex
	// capacity bounds the entry count; Put evicts the least recently used
	// entry beyond it. Fixed at construction.
	capacity int
	entries  map[string]*list.Element
	// order holds *lruEntry[V] values, most recently used at the front.
	order *list.List

	hits, misses, evictions uint64
}

// lruEntry is one keyed value in the recency list.
type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an empty cache bounded to capacity entries (minimum 1).
func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
	}
}

// Get returns the cached value and refreshes its recency. Every call counts
// as a hit or a miss.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the cached value without counting a hit or a miss and
// without refreshing its recency: a second look by a caller whose first
// Get already counted the lookup.
func (c *lruCache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v})
}

// Len returns the number of cached entries.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters snapshots the hit/miss/eviction counts.
func (c *lruCache[V]) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Snapshot returns the counters and the entry count under one lock
// acquisition, so the four values are mutually consistent: separate
// Counters and Len calls can interleave with a concurrent Put and report,
// e.g., more cached entries than misses that could have stored them.
func (c *lruCache[V]) Snapshot() (hits, misses, evictions uint64, length int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len()
}
