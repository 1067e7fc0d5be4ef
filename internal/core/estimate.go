package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/metrics"
	"ese/internal/pum"
)

// schedKey addresses one Algorithm 1 result: a block's structural hash
// under a PUM datapath hash. Cache/branch statistics are deliberately not
// part of the key — the schedule does not depend on them. The fallback
// latency for unmapped op classes is part of the key because it changes
// the schedule of degraded blocks.
type schedKey struct {
	model    pum.Fingerprint
	block    cdfg.Fingerprint
	fallback int
}

// estKey addresses one full Algorithm 2 estimate: the schedule key plus
// the statistical-model hash and the detail flags.
type estKey struct {
	model    pum.Fingerprint
	stats    pum.Fingerprint
	block    cdfg.Fingerprint
	detail   uint8
	fallback int
}

// CacheStats reports the hit/miss counters of a Cache.
type CacheStats struct {
	SchedHits   uint64 // Algorithm 1 results served from cache
	SchedMisses uint64 // Algorithm 1 results computed
	EstHits     uint64 // full estimates served from cache
	EstMisses   uint64 // full estimates composed
	Evictions   uint64 // entries dropped by the bounded cache (0 if unbounded)
}

// Cache is a content-addressed store of schedule results and estimates,
// keyed on canonical fingerprints of the block and the PUM sub-models it
// consumed. Because keys are content hashes, the cache survives
// recompilation: a retarget sweep that rebuilds the program for every
// cache configuration still reuses every Algorithm 1 schedule after the
// first configuration. Safe for concurrent use.
type Cache struct {
	mu    sync.RWMutex
	sched map[schedKey]SchedResult
	est   map[estKey]Estimate
	// limit bounds each map's entry count; 0 means unbounded. When a put
	// would exceed the bound, one resident entry is dropped, chosen by a
	// seeded deterministic generator over the insertion-ordered key list —
	// content-addressed entries are equally cheap to recompute, so the
	// victim choice only affects hit rate, never results, but picking it
	// via Go's randomized map iteration made bounded-cache hit rates (and
	// thus benchmark and DSE timing baselines) wobble run to run.
	limit int
	// rng is the splitmix64 state of the victim picker; schedKeys/estKeys
	// mirror each map's resident keys (maintained only when limit > 0).
	rng       uint64
	schedKeys []schedKey
	estKeys   []estKey

	schedHits, schedMisses atomic.Uint64
	estHits, estMisses     atomic.Uint64
	evictions              atomic.Uint64
}

// NewCache returns an empty, unbounded schedule/estimate cache.
func NewCache() *Cache {
	return NewCacheLimit(0)
}

// NewCacheLimit returns a cache holding at most maxEntries schedule
// results and maxEntries estimates; maxEntries <= 0 means unbounded.
// Eviction at the bound is deterministic: the same sequence of gets and
// puts always drops the same victims (seed fixed at 1). Callers that want
// a distinct-but-reproducible eviction pattern use NewCacheLimitSeeded.
func NewCacheLimit(maxEntries int) *Cache {
	return NewCacheLimitSeeded(maxEntries, 1)
}

// NewCacheLimitSeeded is NewCacheLimit with an explicit seed for the
// eviction victim picker. Two caches built with the same limit and seed
// and fed the same operation sequence evict identical victims — the
// property the benchmark harness and kill/resume DSE sweeps rely on for
// byte-identical reruns.
func NewCacheLimitSeeded(maxEntries int, seed uint64) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{
		sched: make(map[schedKey]SchedResult),
		est:   make(map[estKey]Estimate),
		limit: maxEntries,
		rng:   seed,
	}
}

// nextRand advances the splitmix64 stream; callers hold c.mu.
func (c *Cache) nextRand() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		SchedHits:   c.schedHits.Load(),
		SchedMisses: c.schedMisses.Load(),
		EstHits:     c.estHits.Load(),
		EstMisses:   c.estMisses.Load(),
		Evictions:   c.evictions.Load(),
	}
}

// Len returns the number of cached schedule and estimate entries.
func (c *Cache) Len() (sched, est int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sched), len(c.est)
}

func (c *Cache) schedGet(k schedKey) (SchedResult, bool) {
	c.mu.RLock()
	sr, ok := c.sched[k]
	c.mu.RUnlock()
	if ok {
		c.schedHits.Add(1)
	} else {
		c.schedMisses.Add(1)
	}
	return sr, ok
}

func (c *Cache) schedPut(k schedKey, sr SchedResult) {
	c.mu.Lock()
	if c.limit > 0 {
		if _, resident := c.sched[k]; !resident {
			// The victim is drawn from the residents before k joins the key
			// list, so the just-inserted key can never evict itself.
			if len(c.sched) >= c.limit {
				i := int(c.nextRand() % uint64(len(c.schedKeys)))
				delete(c.sched, c.schedKeys[i])
				c.schedKeys[i] = c.schedKeys[len(c.schedKeys)-1]
				c.schedKeys = c.schedKeys[:len(c.schedKeys)-1]
				c.evictions.Add(1)
			}
			c.schedKeys = append(c.schedKeys, k)
		}
	}
	c.sched[k] = sr
	c.mu.Unlock()
}

func (c *Cache) estGet(k estKey) (Estimate, bool) {
	c.mu.RLock()
	e, ok := c.est[k]
	c.mu.RUnlock()
	if ok {
		c.estHits.Add(1)
	} else {
		c.estMisses.Add(1)
	}
	return e, ok
}

func (c *Cache) estPut(k estKey, e Estimate) {
	c.mu.Lock()
	if c.limit > 0 {
		if _, resident := c.est[k]; !resident {
			if len(c.est) >= c.limit {
				i := int(c.nextRand() % uint64(len(c.estKeys)))
				delete(c.est, c.estKeys[i])
				c.estKeys[i] = c.estKeys[len(c.estKeys)-1]
				c.estKeys = c.estKeys[:len(c.estKeys)-1]
				c.evictions.Add(1)
			}
			c.estKeys = append(c.estKeys, k)
		}
	}
	c.est[k] = e
	c.mu.Unlock()
}

// EstOptions configures EstimateBlocksWith.
type EstOptions struct {
	// Workers bounds the estimation worker pool. Zero or negative uses
	// GOMAXPROCS; 1 estimates serially on the calling goroutine (the
	// reference path the golden tests compare against).
	Workers int
	// Cache, when non-nil, memoizes schedule results and estimates across
	// calls, keyed on content fingerprints.
	Cache *Cache
	// FallbackCycles is the latency charged to ops whose class the PUM
	// does not map (graceful degradation); values < 1 use
	// DefaultFallbackCycles. Such blocks carry Estimate.Unmapped > 0.
	FallbackCycles int
	// Strict turns unmapped op classes into hard errors instead of
	// degraded estimates (only meaningful through EstimateBlocksCtx).
	Strict bool
	// Diags, when non-nil, receives a Warning diagnostic for every
	// degraded block (and the Error diagnostics of strict mode).
	Diags *diag.List
	// Metrics, when non-nil, receives worker-pool counters per call:
	// blocks estimated, the queue depth fan-out, and the per-worker block
	// distribution.
	Metrics *metrics.Registry
}

// fallback returns the effective fallback latency.
func (o EstOptions) fallback() int {
	if o.FallbackCycles < 1 {
		return DefaultFallbackCycles
	}
	return o.FallbackCycles
}

// EstimateBlocks computes the per-block estimate for every block of every
// function under one PUM, without mutating the IR, fanning the blocks out
// over a bounded worker pool. Results are bit-identical to the serial
// path: every block is estimated independently and deterministically.
// Platforms that map functions of the same program onto several PEs keep
// one such map per PE.
func EstimateBlocks(prog *cdfg.Program, p *pum.PUM, detail Detail) map[*cdfg.Block]Estimate {
	return EstimateBlocksWith(prog, p, detail, EstOptions{})
}

// EstimateBlocksWith is EstimateBlocks with an explicit worker bound and
// optional memoization cache. Cancellation and strict-mode errors require
// EstimateBlocksCtx; this legacy form estimates to completion in graceful-
// degradation mode.
func EstimateBlocksWith(prog *cdfg.Program, p *pum.PUM, detail Detail, opts EstOptions) map[*cdfg.Block]Estimate {
	opts.Strict = false
	out, _ := EstimateBlocksCtx(context.Background(), prog, p, detail, opts)
	return out
}

// EstimateBlocksCtx is the context-aware estimation entry point. Workers
// check the context between blocks and drain cleanly on cancellation,
// returning a nil map and the typed diag.ErrCanceled/diag.ErrDeadline. In
// strict mode (opts.Strict) a block using an op class the PUM does not map
// is a hard error naming the block and the missing classes; otherwise such
// blocks are estimated with the fallback latency, flagged via
// Estimate.Unmapped, and reported as Warning diagnostics on opts.Diags.
func EstimateBlocksCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail Detail, opts EstOptions) (map[*cdfg.Block]Estimate, error) {
	type workItem struct {
		b  *cdfg.Block
		fn string
	}
	blocks := make([]workItem, 0, prog.NumBlocks())
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			blocks = append(blocks, workItem{b: b, fn: fn.Name})
		}
	}
	n := len(blocks)
	out := make(map[*cdfg.Block]Estimate, n)
	if n == 0 {
		return out, nil
	}
	fallback := opts.fallback()

	// todo lists the blocks to estimate and rep maps every block to the one
	// whose estimate it takes. With a cache, blocks are keyed by the
	// program's memoized fingerprint table and each distinct fingerprint is
	// estimated once per call, its duplicates counted as estimate hits:
	// workers never race to miss one key, so a call moves the cache
	// counters exactly as a serial call does.
	todo := make([]int, 0, n)
	rep := make([]int, n)
	var fps []cdfg.Fingerprint
	var dpFP, stFP pum.Fingerprint
	var detailBits uint8
	if opts.Cache == nil {
		for i := range blocks {
			todo = append(todo, i)
			rep[i] = i
		}
	} else {
		fps = prog.BlockFingerprints()
		first := make(map[cdfg.Fingerprint]int, n)
		for i, fp := range fps {
			j, seen := first[fp]
			if !seen {
				first[fp], j = i, i
				todo = append(todo, i)
			}
			rep[i] = j
		}
		opts.Cache.estHits.Add(uint64(n - len(todo)))
		// The model fingerprints are shared by every block's cache key.
		dpFP = p.DatapathFingerprint()
		stFP = p.StatFingerprint()
		detailBits = detail.bits()
	}
	estimate := func(s *Scheduler, i int) Estimate {
		b := blocks[i].b
		if opts.Cache == nil {
			return ComposeEstimate(s.ScheduleBlock(b), p, detail)
		}
		ek := estKey{model: dpFP, stats: stFP, block: fps[i], detail: detailBits, fallback: fallback}
		if e, ok := opts.Cache.estGet(ek); ok {
			return e
		}
		sk := schedKey{model: dpFP, block: fps[i], fallback: fallback}
		sr, ok := opts.Cache.schedGet(sk)
		if !ok {
			sr = s.ScheduleBlock(b)
			opts.Cache.schedPut(sk, sr)
		}
		e := ComposeEstimate(sr, p, detail)
		opts.Cache.estPut(ek, e)
		return e
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("est.blocks").Add(uint64(n))
		opts.Metrics.Gauge("est.pool.workers").Set(int64(workers))
		opts.Metrics.Gauge("est.pool.queue.max").SetMax(int64(len(todo)))
	}
	res := make([]Estimate, n)
	var canceled atomic.Bool
	if workers <= 1 {
		s := NewSchedulerFallback(p, fallback)
		for _, i := range todo {
			if diag.FromContext(ctx) != nil {
				canceled.Store(true)
				break
			}
			res[i] = estimate(s, i)
		}
		if opts.Metrics != nil {
			opts.Metrics.Histogram("est.pool.worker.blocks").Observe(float64(len(todo)))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := NewSchedulerFallback(p, fallback)
				done := 0
				for {
					if canceled.Load() {
						break
					}
					if diag.FromContext(ctx) != nil {
						canceled.Store(true)
						break
					}
					k := int(next.Add(1)) - 1
					if k >= len(todo) {
						break
					}
					i := todo[k]
					res[i] = estimate(s, i)
					done++
				}
				if opts.Metrics != nil {
					opts.Metrics.Histogram("est.pool.worker.blocks").Observe(float64(done))
				}
			}()
		}
		wg.Wait()
	}
	if canceled.Load() {
		err := diag.FromContext(ctx)
		opts.Diags.AddError(diag.StageAnnotate, err)
		return nil, err
	}

	// Degradation accounting runs post-hoc over the ordered block list, so
	// diagnostics are deterministic regardless of worker interleaving.
	for i, w := range blocks {
		e := res[rep[i]]
		if e.Unmapped > 0 {
			pos := blockPos(w.fn, w.b)
			if opts.Strict {
				d := diag.Diagnostic{
					Severity: diag.Error,
					Stage:    diag.StageAnnotate,
					Pos:      pos,
					Msg: fmt.Sprintf("PUM %q does not map op classes %v used by the block (%d ops; strict mode)",
						p.Name, UnmappedClasses(w.b, p), e.Unmapped),
				}
				opts.Diags.Add(d)
				return nil, d
			}
			opts.Diags.Warnf(diag.StageAnnotate, pos,
				"PUM %q does not map op classes %v: %d ops estimated with fallback latency %d",
				p.Name, UnmappedClasses(w.b, p), e.Unmapped, fallback)
		}
		out[w.b] = e
	}
	return out, nil
}

// blockPos renders a block location for diagnostics ("func/bb3").
func blockPos(fn string, b *cdfg.Block) string {
	return fmt.Sprintf("%s/bb%d", fn, b.ID)
}
