package core

import (
	"fmt"
	"sort"
	"testing"
)

// residentSched renders the resident schedule keys as a canonical string.
func residentSched(c *Cache) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.sched))
	for k := range c.sched {
		keys = append(keys, fmt.Sprintf("%d", k.fallback))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// residentTables renders the resident table keys as a canonical string.
func residentTables(c *Cache) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.tables))
	for k := range c.tables {
		keys = append(keys, fmt.Sprintf("%d", k.fallback))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// Regression: eviction victims used to come from Go's randomized map
// iteration order, so two caches fed the identical operation sequence
// could end up holding different entries — bounded-cache hit rates (and
// every timing baseline derived from them) wobbled run to run. Victims
// must now be a pure function of (limit, seed, operation sequence).
func TestBoundedCacheEvictionDeterministic(t *testing.T) {
	run := func(seed uint64) (*Cache, string, string) {
		c := NewCacheLimitSeeded(8, seed)
		for i := 0; i < 200; i++ {
			putSched(c, schedKey{fallback: i % 40}, SchedResult{Sched: i})
			c.tablePut(tableKey{fallback: i % 40}, blockTable(1+i%3, i))
			// Interleave hits so the sequence exercises resident re-puts too.
			getSched(c, schedKey{fallback: i % 7})
		}
		return c, residentSched(c), residentTables(c)
	}
	c1, s1, e1 := run(42)
	c2, s2, e2 := run(42)
	if s1 != s2 {
		t.Fatalf("same seed, same ops, different resident schedule sets:\n%s\n%s", s1, s2)
	}
	if e1 != e2 {
		t.Fatalf("same seed, same ops, different resident table sets:\n%s\n%s", e1, e2)
	}
	if c1.Stats().Evictions != c2.Stats().Evictions {
		t.Fatalf("eviction counts diverged: %d vs %d",
			c1.Stats().Evictions, c2.Stats().Evictions)
	}
	// The default-seed constructor is deterministic too.
	d1 := NewCacheLimit(4)
	d2 := NewCacheLimit(4)
	for i := 0; i < 50; i++ {
		putSched(d1, schedKey{fallback: i}, SchedResult{})
		putSched(d2, schedKey{fallback: i}, SchedResult{})
	}
	if residentSched(d1) != residentSched(d2) {
		t.Fatal("NewCacheLimit caches diverged under identical put sequences")
	}
}

// The key lists must track evictions exactly: no ghost keys (picked as
// victims but already gone), no leaks past the bound, and a resident
// block-estimate count equal to the tables' sizes.
func TestBoundedCacheKeyListConsistent(t *testing.T) {
	c := NewCacheLimitSeeded(3, 7)
	for i := 0; i < 100; i++ {
		putSched(c, schedKey{fallback: i % 10}, SchedResult{Sched: i})
		c.tablePut(tableKey{fallback: i % 10}, blockTable(1+i%2, i))
		s, e := c.Len()
		if s > 3 || e > 3 {
			t.Fatalf("cache exceeded its bound: sched=%d est=%d", s, e)
		}
		if len(c.schedKeys) != s || len(c.tableKeys) != len(c.tables) {
			t.Fatalf("key list out of sync: %d/%d keys for %d/%d entries",
				len(c.schedKeys), len(c.tableKeys), s, len(c.tables))
		}
		for _, k := range c.schedKeys {
			if _, ok := c.sched[k]; !ok {
				t.Fatalf("ghost key %+v in schedule key list", k)
			}
		}
		held := 0
		for _, k := range c.tableKeys {
			tab, ok := c.tables[k]
			if !ok {
				t.Fatalf("ghost key %+v in table key list", k)
			}
			held += tab.Len()
		}
		if held != e {
			t.Fatalf("tables hold %d block estimates, Len reports %d", held, e)
		}
	}
}
