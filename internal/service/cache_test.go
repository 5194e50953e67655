package service

import "testing"

// TestLRUEvictionOrder pins the recency discipline: eviction removes the
// least recently used entry, and Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" becomes the oldest.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("d", 4) // evicts "b"
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry b survived eviction")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("entry %s evicted out of order", key)
		}
	}
	c.Put("e", 5) // evicts "a" (oldest after the Gets above refreshed a,c,d in that order)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry a should have been evicted after c and d were refreshed more recently")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestLRUCounters pins the hit/miss/eviction bookkeeping.
func TestLRUCounters(t *testing.T) {
	c := newLRU[string](2)
	c.Put("x", "1")
	c.Get("x")    // hit
	c.Get("nope") // miss
	c.Put("y", "2")
	c.Put("z", "3") // evicts x
	hits, misses, evictions := c.Counters()
	if hits != 1 || misses != 1 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/1", hits, misses, evictions)
	}
	if _, ok := c.Get("x"); ok {
		t.Fatal("evicted entry still present")
	}
}

// TestLRUPutRefreshesExisting pins that re-putting a key updates in place
// without growing or evicting.
func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after refresh, want 2", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refreshed value = %d, want 10", v)
	}
	c.Put("c", 3) // must evict b ("a" was refreshed by Put then Get)
	if _, ok := c.Get("b"); ok {
		t.Fatal("refresh did not move a to the front")
	}
	if _, _, evictions := c.Counters(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

// TestLRUMinimumCapacity pins the capacity floor of 1.
func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU[int](0)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d with floor capacity, want 1", c.Len())
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("most recent entry missing")
	}
}

// TestLRUPeekDoesNotCount pins that Peek reads without touching the
// counters or the recency order.
func TestLRUPeekDoesNotCount(t *testing.T) {
	c := newLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("nope"); ok {
		t.Fatal("Peek found an absent key")
	}
	if hits, misses, _ := c.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("Peek counted: hits=%d misses=%d", hits, misses)
	}
	c.Put("c", 3) // "a" is still the oldest: Peek did not refresh it
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed recency")
	}
}
