package core

import (
	"context"
	"testing"
)

// putSched fills k with sr through the cache's fill rule, counting a hit
// or a miss: a stored key keeps its first value.
func putSched(c *Cache, k schedKey, sr SchedResult) {
	c.fillSched(context.Background(), k, func() SchedResult { return sr })
}

// getSched looks one schedule key up, uncounted.
func getSched(c *Cache, k schedKey) (SchedResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sr, ok := c.sched[k]
	return sr, ok
}

// putTable fills k with t through the cache's fill rule and returns the
// table every caller of k gets: a stored key keeps its first table.
func putTable(c *Cache, k tableKey, t *Table) *Table {
	got, _ := c.fillTable(context.Background(), k, func() (*Table, error) { return t, nil })
	return got
}

// getTable looks one table key up, uncounted, or returns nil.
func getTable(c *Cache, k tableKey) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[k]
}

// blockTable returns a table of n blocks whose estimates carry tag.
func blockTable(n, tag int) *Table {
	est := make([]Estimate, n)
	for i := range est {
		est[i] = Estimate{Sched: tag, Total: float64(tag)}
	}
	return newTable(est)
}

// TestBoundedCacheNeverEvictsJustInsertedKey locks the eviction policy of
// the bounded cache at its tightest setting, limit 1: re-putting the
// resident key must neither evict anything nor refill it (it keeps its
// first value), and inserting a new key must
// evict the old entry — never the key being inserted. Without the
// residency check a full cache would pick its own incoming key as the
// victim, making every put at the bound a guaranteed future miss and the
// cache useless at small limits.
func TestBoundedCacheNeverEvictsJustInsertedKey(t *testing.T) {
	c := NewCacheLimit(1)
	k1 := schedKey{fallback: 1}
	k2 := schedKey{fallback: 2}

	putSched(c, k1, SchedResult{Sched: 11})
	putSched(c, k1, SchedResult{Sched: 12}) // a hit: keeps the first value, no eviction
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("re-putting the resident key evicted %d entries", ev)
	}
	if sr, ok := getSched(c, k1); !ok || sr.Sched != 11 {
		t.Fatalf("resident key did not keep its first value: ok=%v sr=%+v", ok, sr)
	}

	putSched(c, k2, SchedResult{Sched: 20})
	if sr, ok := getSched(c, k2); !ok || sr.Sched != 20 {
		t.Fatal("bounded cache evicted the key it just inserted")
	}
	if _, ok := getSched(c, k1); ok {
		t.Fatal("old entry survived past the limit")
	}
	if s, _ := c.Len(); s != 1 {
		t.Fatalf("schedule map holds %d entries at limit 1", s)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("want exactly 1 eviction, got %d", ev)
	}
}

// TestBoundedCacheEstimateSide is the same regression for the estimate
// tables, whose bound counts block estimates: a resident key keeps its
// first table without evicting, a new table evicts whole tables until it
// fits (counting the block estimates dropped) and is never its own
// victim, and a table larger than the whole bound is returned unstored.
func TestBoundedCacheEstimateSide(t *testing.T) {
	c := NewCacheLimit(4)
	k1 := tableKey{fallback: 1}
	k2 := tableKey{fallback: 2}
	k3 := tableKey{fallback: 3}

	t1 := blockTable(3, 1)
	if got := putTable(c, k1, t1); got != t1 {
		t.Fatal("first put did not return its own table")
	}
	if got := putTable(c, k1, blockTable(3, 9)); got != t1 {
		t.Fatal("re-putting a resident key replaced the first table")
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("re-putting the resident key evicted %d entries", ev)
	}
	t2 := blockTable(2, 2)
	putTable(c, k2, t2)
	if got := getTable(c, k2); got != t2 {
		t.Fatal("bounded cache evicted the table it just inserted")
	}
	if getTable(c, k1) != nil {
		t.Fatal("old table survived past the limit")
	}
	if _, e := c.Len(); e != 2 {
		t.Fatalf("tables hold %d block estimates, want 2", e)
	}
	if ev := c.Stats().Evictions; ev != 3 {
		t.Fatalf("evictions = %d, want the 3 block estimates of the dropped table", ev)
	}
	big := blockTable(5, 5)
	if got := putTable(c, k3, big); got != big {
		t.Fatal("an oversized table was not returned to its caller")
	}
	if getTable(c, k3) != nil || getTable(c, k2) != t2 {
		t.Fatal("an oversized table was stored or evicted a resident one")
	}
}
