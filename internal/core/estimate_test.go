package core

import (
	"reflect"
	"testing"

	"ese/internal/cdfg"
)

// dupSrc has two functions with identical bodies, so every block of one
// has a structurally equal twin in the other.
const dupSrc = `
int a[32];
void fill_a() {
  int i;
  for (i = 0; i < 32; i++) {
    if (a[i] > 3) a[i] = a[i] / 3;
    else a[i] = a[i] * i;
  }
}
void fill_b() {
  int i;
  for (i = 0; i < 32; i++) {
    if (a[i] > 3) a[i] = a[i] / 3;
    else a[i] = a[i] * i;
  }
}
void main() {
  fill_a();
  fill_b();
  out(a[7]);
}`

// statsDelta returns the counter increase from before to after.
func statsDelta(before, after CacheStats) CacheStats {
	return CacheStats{
		SchedHits:   after.SchedHits - before.SchedHits,
		SchedMisses: after.SchedMisses - before.SchedMisses,
		EstHits:     after.EstHits - before.EstHits,
		EstMisses:   after.EstMisses - before.EstMisses,
		Evictions:   after.Evictions - before.Evictions,
	}
}

// TestEstimateCacheCountsIndependentOfWorkers: on a program with duplicate
// blocks, one annotation call estimates each distinct fingerprint once and
// counts the duplicates as estimate hits, so a cold and a warm call move
// the cache counters by the same amounts on 8 workers as on 1, every time.
func TestEstimateCacheCountsIndependentOfWorkers(t *testing.T) {
	prog := compile(t, dupSrc)
	distinct := make(map[cdfg.Fingerprint]bool)
	for _, fp := range prog.BlockFingerprints() {
		distinct[fp] = true
	}
	if len(distinct) == prog.NumBlocks() {
		t.Fatal("test program has no duplicate blocks")
	}
	p := mbWithCache(t, 8*1024, 4*1024)
	run := func(workers int) ([2]CacheStats, map[string]Estimate) {
		c := NewCache()
		var deltas [2]CacheStats
		var est map[string]Estimate
		for k := range deltas {
			before := c.Stats()
			got := EstimateBlocksWith(prog, p, FullDetail, EstOptions{Workers: workers, Cache: c})
			deltas[k] = statsDelta(before, c.Stats())
			est = make(map[string]Estimate, len(got))
			for b, e := range got {
				est[blockPos(b.Fn.Name, b)] = e
			}
		}
		return deltas, est
	}
	want, wantEst := run(1)
	cold := want[0]
	if cold.EstMisses != uint64(len(distinct)) || cold.EstHits != uint64(prog.NumBlocks()-len(distinct)) {
		t.Fatalf("cold call counted %+v, want %d estimate misses and %d hits",
			cold, len(distinct), prog.NumBlocks()-len(distinct))
	}
	for rep := 0; rep < 50; rep++ {
		got, est := run(8)
		if got != want {
			t.Fatalf("repetition %d: 8 workers counted %+v, 1 worker %+v", rep, got, want)
		}
		if !reflect.DeepEqual(est, wantEst) {
			t.Fatalf("repetition %d: 8 workers estimated differently from 1", rep)
		}
	}
}
