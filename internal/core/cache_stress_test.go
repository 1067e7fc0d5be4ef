package core

import (
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
// schedule get is either a hit or a miss, every one-block table hit
// counts one estimate hit, the resident size never exceeds the bound, and
// evictions cannot outnumber the puts that could have triggered them.
// Run under -race this also proves the get/put/evict paths are safe to
// share between the daemon's request goroutines.
func TestCacheStressAtLimit(t *testing.T) {
	const (
		limit   = 64
		keySpan = 256 // 4x the bound: most puts evict
		perG    = 2000
	)
	workers := runtime.GOMAXPROCS(0) * 2
	c := NewCacheLimit(limit)
	sk, tk := stressKeys(keySpan)

	var schedGets, schedPuts, tableGets, tablePuts atomic.Uint64
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
				k := sk[i]
				if _, ok := getSched(c, k); !ok {
					putSched(c, k, SchedResult{Sched: i})
					schedPuts.Add(1)
				}
				schedGets.Add(1)
				if c.tableGet(tk[i]) == nil {
					c.tablePut(tk[i], blockTable(1, i))
					tablePuts.Add(1)
				}
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
	// Builds, not table gets, count estimate misses; a get that missed
	// puts, so hits and puts add up to the gets.
	if st.EstHits+tablePuts.Load() != tableGets.Load() {
		t.Errorf("table counters do not reconcile: hits %d + puts %d != gets %d",
			st.EstHits, tablePuts.Load(), tableGets.Load())
	}
	// Only a get that missed triggers a put, so misses bound the puts; and
	// only a put of a non-resident key at the limit evicts (one-block
	// tables drop one estimate each), so puts bound the evictions.
	if schedPuts.Load() > st.SchedMisses {
		t.Errorf("more sched puts (%d) than misses (%d)", schedPuts.Load(), st.SchedMisses)
	}
	if st.Evictions > schedPuts.Load()+tablePuts.Load() {
		t.Errorf("more evictions (%d) than puts (%d)", st.Evictions, schedPuts.Load()+tablePuts.Load())
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
}

// TestCacheStressUnbounded runs the same hammer on an unbounded cache:
// every key is computed at most a handful of times (once per goroutine at
// worst, when several miss concurrently before the first put lands), and
// nothing is ever evicted.
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
				k := sk[i]
				if _, ok := getSched(c, k); !ok {
					putSched(c, k, SchedResult{Sched: i})
				}
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
	// A key can miss at most once per goroutine (they race on first
	// insert); after that every get hits.
	if st.SchedMisses > uint64(keySpan*workers) {
		t.Errorf("misses %d exceed worst-case %d", st.SchedMisses, keySpan*workers)
	}
	if st.SchedHits+st.SchedMisses != uint64(workers*perG) {
		t.Errorf("counters do not reconcile: %d + %d != %d",
			st.SchedHits, st.SchedMisses, workers*perG)
	}
}
