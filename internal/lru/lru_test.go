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

// TestEvictionOrderAndReporting: Put evicts least recently used first
// and reports what it dropped; Get refreshes recency, Contains does not;
// a lowered capacity takes effect at the next Put, in the same order.
func TestEvictionOrderAndReporting(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		if ev := c.Put(k, i); ev != nil {
			t.Fatalf("put %s under capacity evicted %v", k, ev)
		}
	}
	if !c.Full() {
		t.Fatal("cache at capacity not full")
	}
	c.Get("a")          // a is now most recent
	c.Contains("b")     // no effect on order
	ev := c.Put("d", 3) // evicts b, the least recently used
	if !slices.Equal(ev, []string{"b"}) {
		t.Fatalf("evicted %v, want [b]", ev)
	}
	if got := keys(c); !slices.Equal(got, []string{"d", "a", "c"}) {
		t.Fatalf("order %v, want [d a c]", got)
	}
	if ev := c.Put("a", 9); ev != nil {
		t.Fatalf("refreshing a present key evicted %v", ev)
	}
	if v, ok := c.Get("a"); !ok || v != 9 {
		t.Fatalf("a = %d %v, want 9", v, ok)
	}
	c.SetCapacity(1)
	if ev := c.Put("e", 4); !slices.Equal(ev, []string{"c", "d", "a"}) {
		t.Fatalf("put past a lowered capacity evicted %v, want [c d a]", ev)
	}
	if !c.Delete("e") || c.Delete("e") || c.Len() != 0 {
		t.Fatalf("delete: len %d", c.Len())
	}
	if hits, misses := c.Counters(); hits != 2 || misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 2/0", hits, misses)
	}
}
