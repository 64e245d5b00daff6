package lru

import (
	"slices"
	"testing"
)

// keys lists the cache's keys, most recently used first.
func keys(c *Cache[int]) []string {
	var out []string
	c.Range(func(k string, _ int) { out = append(out, k) })
	return out
}

// TestEvictionOrder: Put evicts least recently used first; Get
// refreshes recency, Contains does not; a lowered capacity takes effect
// at the next Put.
func TestEvictionOrder(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	if got := keys(c); !slices.Equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("order %v under capacity, want [c b a]", got)
	}
	if !c.Full() {
		t.Fatal("cache at capacity not full")
	}
	c.Get("a")      // a is now most recent
	c.Contains("b") // no effect on order
	c.Put("d", 3)   // evicts b, the least recently used
	if got := keys(c); !slices.Equal(got, []string{"d", "a", "c"}) {
		t.Fatalf("order %v, want [d a c]", got)
	}
	c.Put("a", 9) // refreshing a present key evicts nothing
	if got := keys(c); !slices.Equal(got, []string{"a", "d", "c"}) {
		t.Fatalf("order %v after a refresh, want [a d c]", got)
	}
	if v, ok := c.Get("a"); !ok || v != 9 {
		t.Fatalf("a = %d %v, want 9", v, ok)
	}
	c.SetCapacity(1)
	c.Put("e", 4)
	if got := keys(c); !slices.Equal(got, []string{"e"}) {
		t.Fatalf("order %v past a lowered capacity, want [e]", got)
	}
	if !c.Delete("e") || c.Delete("e") || c.Len() != 0 {
		t.Fatalf("delete: len %d", c.Len())
	}
	if hits, misses := c.Counters(); hits != 2 || misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 2/0", hits, misses)
	}
}

// TestTryGetCountsOnlyHits: a TryGet hit counts and refreshes recency
// like Get's; a TryGet miss leaves the counters alone.
func TestTryGetCountsOnlyHits(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.TryGet("x"); ok {
		t.Fatal("TryGet found an absent key")
	}
	if v, ok := c.TryGet("a"); !ok || v != 1 {
		t.Fatalf("a = %d %v, want 1", v, ok)
	}
	c.Put("c", 3) // evicts b: the TryGet made a the most recent
	if got := keys(c); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("order %v, want [c a]", got)
	}
	if hits, misses := c.Counters(); hits != 1 || misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", hits, misses)
	}
}
