package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressKeys builds n distinct schedule/table key pairs. Keys are content
// hashes in production; synthetic distinct byte patterns exercise the same
// map behavior.
func stressKeys(n int) ([]schedKey, []tableKey) {
	sk := make([]schedKey, n)
	tk := make([]tableKey, n)
	for i := range sk {
		var fp [32]byte
		fp[0], fp[1], fp[2], fp[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		sk[i] = schedKey{model: fp, block: fp, fallback: i % 3}
		tk[i] = tableKey{code: fp, model: fp, stats: fp, detail: uint8(i % 2), fallback: i % 3}
	}
	return sk, tk
}

// TestCacheStressAtLimit hammers a bounded cache from many goroutines
// with a key space larger than the bound, forcing constant eviction, and
// then reconciles the counters against the operation counts: every
// schedule fill is either a hit or a miss, only a miss computes, every
// one-block table hit counts one estimate hit, the resident size never
// exceeds the bound, evictions cannot outnumber the values stored, and
// no key is left in flight. Run under -race this also proves the
// fill/evict paths are safe to share between the daemon's request
// goroutines.
func TestCacheStressAtLimit(t *testing.T) {
	const (
		limit   = 64
		keySpan = 256 // 4x the bound: most puts evict
		perG    = 2000
	)
	workers := runtime.GOMAXPROCS(0) * 2
	c := NewCacheLimit(limit)
	sk, tk := stressKeys(keySpan)
	ctx := context.Background()

	var schedGets, schedComputes, tableGets, tableBuilds atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Deterministic per-goroutine walk; different strides keep the
			// goroutines out of lockstep.
			i := seed
			for n := 0; n < perG; n++ {
				i = (i*1103515245 + 12345) & (keySpan - 1)
				c.fillSched(ctx, sk[i], func() SchedResult {
					schedComputes.Add(1)
					return SchedResult{Sched: i}
				})
				schedGets.Add(1)
				c.fillTable(ctx, tk[i], func() (*Table, error) {
					tableBuilds.Add(1)
					return blockTable(1, i), nil
				})
				tableGets.Add(1)
			}
		}(g * 7919)
	}
	wg.Wait()

	st := c.Stats()
	if st.SchedHits+st.SchedMisses != schedGets.Load() {
		t.Errorf("sched counters do not reconcile: hits %d + misses %d != gets %d",
			st.SchedHits, st.SchedMisses, schedGets.Load())
	}
	if schedComputes.Load() != st.SchedMisses {
		t.Errorf("%d schedules computed for %d misses", schedComputes.Load(), st.SchedMisses)
	}
	// The builds here count no estimates themselves (Cache.build does), so
	// hits and builds add up to the gets.
	if st.EstHits+tableBuilds.Load() != tableGets.Load() {
		t.Errorf("table counters do not reconcile: hits %d + builds %d != gets %d",
			st.EstHits, tableBuilds.Load(), tableGets.Load())
	}
	// Only storing a value at the limit evicts (one-block tables drop one
	// estimate each), so the values computed bound the evictions.
	if st.Evictions > schedComputes.Load()+tableBuilds.Load() {
		t.Errorf("more evictions (%d) than values stored (%d)", st.Evictions, schedComputes.Load()+tableBuilds.Load())
	}
	sched, est := c.Len()
	if sched > limit || est > limit {
		t.Errorf("bound violated: %d sched / %d est entries, limit %d", sched, est, limit)
	}
	if sched == 0 || est == 0 {
		t.Error("cache empty after stress — puts are not landing")
	}
	if st.Evictions == 0 {
		t.Error("no evictions at 4x key span — the stress never hit the bound")
	}
	if len(c.schedFills) != 0 || len(c.tableFills) != 0 {
		t.Errorf("%d schedule and %d table keys left in flight", len(c.schedFills), len(c.tableFills))
	}
}

// TestCacheStressUnbounded runs the same hammer on an unbounded cache:
// fills are single-flight, so every key is computed exactly once however
// many goroutines miss it together, and nothing is ever evicted.
func TestCacheStressUnbounded(t *testing.T) {
	const (
		keySpan = 128
		perG    = 1000
	)
	workers := runtime.GOMAXPROCS(0) * 2
	c := NewCache()
	sk, _ := stressKeys(keySpan)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Full-period LCG mod 2^k (multiplier ≡ 1 mod 4, odd increment):
			// every goroutine visits all keySpan keys.
			i := seed
			for n := 0; n < perG; n++ {
				i = (i*1103515245 + 12345) & (keySpan - 1)
				putSched(c, sk[i], SchedResult{Sched: i})
			}
		}(g * 104729)
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d entries", st.Evictions)
	}
	sched, _ := c.Len()
	if sched != keySpan {
		t.Errorf("resident sched entries = %d, want %d", sched, keySpan)
	}
	if st.SchedMisses != keySpan {
		t.Errorf("misses %d, want one per key (%d)", st.SchedMisses, keySpan)
	}
	if st.SchedHits+st.SchedMisses != uint64(workers*perG) {
		t.Errorf("counters do not reconcile: %d + %d != %d",
			st.SchedHits, st.SchedMisses, workers*perG)
	}
}
