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

// tableKey addresses one estimate table: the program's code hash (which
// hashes every block fingerprint in dense order, so a table is valid
// position by position for every program with that code), the datapath
// and statistical-model hashes, the detail flags and the fallback
// latency.
type tableKey struct {
	code     cdfg.Fingerprint
	model    pum.Fingerprint
	stats    pum.Fingerprint
	detail   uint8
	fallback int
}

// Table holds one program's Algorithm 2 estimates under one PE model in
// dense program block order: prog.Funcs in order, then each function's
// Blocks in order — the order of cdfg.Program.BlockFingerprints, the
// compiled engine's block ids and the generated engines' delay tables. A
// table is immutable once built and shared read-only by the cache and
// every annotation that hits it: callers must not modify the slices it
// returns.
type Table struct {
	est    []Estimate
	totals []float64
	// degraded counts blocks with fallback-latency ops; unmapped sums
	// those ops.
	degraded, unmapped int
}

// newTable wraps dense estimates, deriving the totals and tallies.
func newTable(est []Estimate) *Table {
	t := &Table{est: est, totals: make([]float64, len(est))}
	for i, e := range est {
		t.totals[i] = e.Total
		if e.Unmapped > 0 {
			t.degraded++
			t.unmapped += e.Unmapped
		}
	}
	return t
}

// Len returns the number of blocks the table covers.
func (t *Table) Len() int { return len(t.est) }

// Estimates returns every block's estimate in dense block order.
func (t *Table) Estimates() []Estimate { return t.est }

// Totals returns every block's Estimate.Total in dense block order: the
// per-block delay table the timed TLM, the engines and the generator
// consume.
func (t *Table) Totals() []float64 { return t.totals }

// DegradedBlocks counts blocks estimated with fallback latencies for op
// classes the PUM does not map.
func (t *Table) DegradedBlocks() int { return t.degraded }

// UnmappedOps sums the per-block counts of operations estimated with
// fallback latency.
func (t *Table) UnmappedOps() int { return t.unmapped }

// CacheStats reports the hit/miss counters of a Cache, in block
// estimates: a table hit counts one estimate hit per block, and a table
// build counts each distinct block fingerprint as an estimate miss (and
// one schedule lookup) and its duplicates as estimate hits.
type CacheStats struct {
	SchedHits   uint64 // Algorithm 1 results served from cache
	SchedMisses uint64 // Algorithm 1 results computed
	EstHits     uint64 // block estimates served from a table or a duplicate block
	EstMisses   uint64 // block estimates composed
	Evictions   uint64 // schedule entries and block estimates dropped by the bounded cache (0 if unbounded)
}

// Cache is a content-addressed store of Algorithm 1 schedule results, one
// per (block fingerprint, datapath), and of estimate tables, one per
// (program code, datapath, statistics, detail, fallback). Because keys are
// content hashes, the cache survives recompilation: a retarget sweep that
// rebuilds the program for every cache configuration still reuses every
// Algorithm 1 schedule after the first configuration, and every program
// with the same code (another seed of one design) shares its tables. Safe
// for concurrent use; stored tables are never modified.
type Cache struct {
	mu     sync.RWMutex
	sched  map[schedKey]SchedResult
	tables map[tableKey]*Table
	// limit bounds the schedule entries, and separately the block
	// estimates held by the tables (a table counts as its block count);
	// 0 means unbounded. When a put would exceed the bound, resident
	// entries are dropped, chosen by a seeded deterministic generator over
	// the insertion-ordered key lists — content-addressed entries are
	// equally cheap to recompute, so the victim choice only affects hit
	// rate, never results, but picking it via Go's randomized map
	// iteration made bounded-cache hit rates (and thus benchmark and DSE
	// timing baselines) wobble run to run.
	limit int
	// rng is the splitmix64 state of the victim picker; schedKeys and
	// tableKeys mirror each map's resident keys and tableBlocks counts the
	// resident block estimates (the key lists are kept only when
	// limit > 0).
	rng         uint64
	schedKeys   []schedKey
	tableKeys   []tableKey
	tableBlocks int

	schedHits, schedMisses atomic.Uint64
	estHits, estMisses     atomic.Uint64
	evictions              atomic.Uint64
}

// NewCache returns an empty, unbounded schedule/estimate cache.
func NewCache() *Cache {
	return NewCacheLimit(0)
}

// NewCacheLimit returns a cache holding at most maxEntries schedule
// results and at most maxEntries block estimates across its tables (a
// table larger than the whole bound is returned but never stored);
// maxEntries <= 0 means unbounded. Eviction at the bound is deterministic:
// the same sequence of gets and puts always drops the same victims (seed
// fixed at 1). Callers that want a distinct-but-reproducible eviction
// pattern use NewCacheLimitSeeded.
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
		sched:  make(map[schedKey]SchedResult),
		tables: make(map[tableKey]*Table),
		limit:  maxEntries,
		rng:    seed,
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

// Len returns the number of cached schedule entries and the number of
// block estimates held by the cached tables.
func (c *Cache) Len() (sched, est int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sched), c.tableBlocks
}

// schedLoad is one uncounted schedule lookup.
func (c *Cache) schedLoad(k schedKey) (SchedResult, bool) {
	c.mu.RLock()
	sr, ok := c.sched[k]
	c.mu.RUnlock()
	return sr, ok
}

// schedPut stores one schedule result.
func (c *Cache) schedPut(k schedKey, sr SchedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit > 0 {
		if _, resident := c.sched[k]; !resident {
			// The victim is drawn from the residents before k joins the key
			// list, so the just-inserted key can never evict itself.
			if len(c.sched) >= c.limit {
				v := int(c.nextRand() % uint64(len(c.schedKeys)))
				delete(c.sched, c.schedKeys[v])
				c.schedKeys[v] = c.schedKeys[len(c.schedKeys)-1]
				c.schedKeys = c.schedKeys[:len(c.schedKeys)-1]
				c.evictions.Add(1)
			}
			c.schedKeys = append(c.schedKeys, k)
		}
	}
	c.sched[k] = sr
}

// tableGet returns the stored table for k, counting one estimate hit per
// block, or nil.
func (c *Cache) tableGet(k tableKey) *Table {
	c.mu.RLock()
	t := c.tables[k]
	c.mu.RUnlock()
	if t != nil {
		c.estHits.Add(uint64(t.Len()))
	}
	return t
}

// tablePut stores t under k and returns the table every caller of k should
// use: an already-resident table wins over t (concurrent builds of one key
// are equal, so the first insert wins). Under a bound, resident tables are
// evicted until t fits; a table larger than the whole bound is returned
// but not stored.
func (c *Cache) tablePut(k tableKey, t *Table) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.tables[k]; first != nil {
		return first
	}
	n := t.Len()
	if c.limit > 0 {
		if n > c.limit {
			return t
		}
		for c.tableBlocks+n > c.limit {
			v := int(c.nextRand() % uint64(len(c.tableKeys)))
			dropped := c.tables[c.tableKeys[v]].Len()
			delete(c.tables, c.tableKeys[v])
			c.tableKeys[v] = c.tableKeys[len(c.tableKeys)-1]
			c.tableKeys = c.tableKeys[:len(c.tableKeys)-1]
			c.tableBlocks -= dropped
			c.evictions.Add(uint64(dropped))
		}
		c.tableKeys = append(c.tableKeys, k)
	}
	c.tables[k] = t
	c.tableBlocks += n
	return t
}

// EstOptions configures EstimateBlocksCtx.
type EstOptions struct {
	// Workers bounds the worker pool that schedules blocks missing from
	// the cache (every block without one). Zero or negative uses
	// GOMAXPROCS; 1 schedules serially on the calling goroutine (the
	// reference path the golden tests compare against).
	Workers int
	// Cache, when non-nil, memoizes schedule results and estimate tables
	// across calls, keyed on content fingerprints.
	Cache *Cache
	// FallbackCycles is the latency charged to ops whose class the PUM
	// does not map (graceful degradation); values < 1 use
	// DefaultFallbackCycles. Such blocks carry Estimate.Unmapped > 0.
	FallbackCycles int
	// Strict turns unmapped op classes into hard errors instead of
	// degraded estimates.
	Strict bool
	// Diags, when non-nil, receives a Warning diagnostic for every
	// degraded block (and the Error diagnostics of strict mode).
	Diags *diag.List
	// Metrics, when non-nil, receives the worker-pool counters of every
	// call that schedules: blocks scheduled, the queue depth fan-out, and
	// the per-worker block distribution.
	Metrics *metrics.Registry
}

// fallback returns the effective fallback latency.
func (o EstOptions) fallback() int {
	if o.FallbackCycles < 1 {
		return DefaultFallbackCycles
	}
	return o.FallbackCycles
}

// EstimateBlocksCtx computes the estimate table of every block of every
// function under one PUM, without mutating the IR, scheduling the blocks
// over a bounded worker pool; results are bit-identical to the serial
// path. Platforms that map functions of the same program onto several PEs
// keep one table per PE. With a cache, a call whose table is stored does
// no per-block work; otherwise the table is built (see Cache.build) and
// stored. The context is checked on entry and between scheduled blocks:
// cancellation returns a nil table and the typed
// diag.ErrCanceled/diag.ErrDeadline, and stores no partial table. In
// strict mode (opts.Strict) a block using an op class the PUM does not
// map is a hard error naming the block and the missing classes; otherwise
// such blocks are estimated with the fallback latency, flagged via
// Estimate.Unmapped, and reported as Warning diagnostics on opts.Diags —
// on every call, whether its table was built or hit.
func EstimateBlocksCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail Detail, opts EstOptions) (*Table, error) {
	t, err := estimate(ctx, prog, p, detail, opts)
	if err != nil {
		opts.Diags.AddError(diag.StageAnnotate, err)
		return nil, err
	}
	if t.degraded > 0 {
		if err := t.reportDegraded(prog, p, opts); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// estimate returns prog's table under p: the cached one, or a fresh build.
func estimate(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail Detail, opts EstOptions) (*Table, error) {
	if err := diag.FromContext(ctx); err != nil {
		return nil, err
	}
	c := opts.Cache
	if c == nil {
		blocks := denseBlocks(prog)
		all := make([]int, len(blocks))
		for i := range all {
			all[i] = i
		}
		srs := make([]SchedResult, len(blocks))
		if err := schedule(ctx, blocks, all, srs, p, opts, nil); err != nil {
			return nil, err
		}
		est := make([]Estimate, len(blocks))
		for i, sr := range srs {
			est[i] = ComposeEstimate(sr, p, detail)
		}
		return newTable(est), nil
	}
	dp := p.DatapathFingerprint()
	k := tableKey{code: prog.CodeFingerprint(), model: dp, stats: p.StatFingerprint(),
		detail: detail.bits(), fallback: opts.fallback()}
	if t := c.tableGet(k); t != nil {
		return t, nil
	}
	t, err := c.build(ctx, prog, p, dp, detail, opts)
	if err != nil {
		return nil, err
	}
	return c.tablePut(k, t), nil
}

// build makes prog's table under p. Under one read lock, each distinct
// block fingerprint (cdfg.Program.BlockReps) is looked up once in the
// schedule map and a hit is composed at once; the misses are scheduled on
// the worker pool and composed on the calling goroutine, and each
// duplicate block copies its representative. Workers never race to miss
// one key, so a build moves the cache counters exactly as a serial build
// does.
func (c *Cache) build(ctx context.Context, prog *cdfg.Program, p *pum.PUM, dp pum.Fingerprint, detail Detail, opts EstOptions) (*Table, error) {
	fps, reps := prog.BlockFingerprints(), prog.BlockReps()
	fallback := opts.fallback()
	est := make([]Estimate, len(fps))
	var miss []int
	distinct := 0
	c.mu.RLock()
	for i, j := range reps {
		if i != j {
			continue
		}
		distinct++
		if sr, ok := c.sched[schedKey{model: dp, block: fps[i], fallback: fallback}]; ok {
			est[i] = ComposeEstimate(sr, p, detail)
		} else {
			miss = append(miss, i)
		}
	}
	c.mu.RUnlock()
	c.estHits.Add(uint64(len(fps) - distinct))
	c.estMisses.Add(uint64(distinct))
	c.schedHits.Add(uint64(distinct - len(miss)))
	if len(miss) > 0 {
		key := func(i int) schedKey { return schedKey{model: dp, block: fps[i], fallback: fallback} }
		srs := make([]SchedResult, len(fps))
		if err := schedule(ctx, denseBlocks(prog), miss, srs, p, opts, key); err != nil {
			return nil, err
		}
		for _, i := range miss {
			est[i] = ComposeEstimate(srs[i], p, detail)
		}
	}
	for i, j := range reps {
		if i != j {
			est[i] = est[j]
		}
	}
	return newTable(est), nil
}

// denseBlocks lists prog's blocks in dense program order.
func denseBlocks(prog *cdfg.Program) []*cdfg.Block {
	blocks := make([]*cdfg.Block, 0, prog.NumBlocks())
	for _, fn := range prog.Funcs {
		blocks = append(blocks, fn.Blocks...)
	}
	return blocks
}

// schedule runs Algorithm 1 on blocks[i] for every i in todo, storing the
// result in srs[i], on at most opts.Workers goroutines. With a cache (key
// non-nil), each block is first looked up again, counting a hit — a
// concurrent build may have stored it since build looked — and every
// schedule computed is counted as a miss and stored at once, so
// concurrent builds sharing blocks mostly compute each schedule once.
// Workers check the context between blocks and drain cleanly on
// cancellation, returning the typed error with srs partly filled.
func schedule(ctx context.Context, blocks []*cdfg.Block, todo []int, srs []SchedResult, p *pum.PUM, opts EstOptions, key func(i int) schedKey) error {
	if len(todo) == 0 {
		return nil
	}
	c := opts.Cache
	one := func(s *Scheduler, i int) {
		if key == nil {
			srs[i] = s.ScheduleBlock(blocks[i])
			return
		}
		if sr, ok := c.schedLoad(key(i)); ok {
			srs[i] = sr
			c.schedHits.Add(1)
			return
		}
		c.schedMisses.Add(1)
		srs[i] = s.ScheduleBlock(blocks[i])
		c.schedPut(key(i), srs[i])
	}
	fallback := opts.fallback()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(todo))
	if opts.Metrics != nil {
		opts.Metrics.Counter("est.blocks").Add(uint64(len(todo)))
		opts.Metrics.Gauge("est.pool.workers").Set(int64(workers))
		opts.Metrics.Gauge("est.pool.queue.max").SetMax(int64(len(todo)))
	}
	observe := func(done int) {
		if opts.Metrics != nil {
			opts.Metrics.Histogram("est.pool.worker.blocks").Observe(float64(done))
		}
	}
	if workers == 1 {
		s := NewSchedulerFallback(p, fallback)
		for k, i := range todo {
			if err := diag.FromContext(ctx); err != nil {
				observe(k)
				return err
			}
			one(s, i)
		}
		observe(len(todo))
		return nil
	}
	var next atomic.Int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSchedulerFallback(p, fallback)
			done := 0
			for !canceled.Load() {
				if diag.FromContext(ctx) != nil {
					canceled.Store(true)
					break
				}
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					break
				}
				one(s, todo[k])
				done++
			}
			observe(done)
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return diag.FromContext(ctx)
	}
	return nil
}

// reportDegraded emits one call's degradation diagnostics, walking the
// blocks in order: a Warning per degraded block, or in strict mode the
// Error of the first one, which it returns.
func (t *Table) reportDegraded(prog *cdfg.Program, p *pum.PUM, opts EstOptions) error {
	i := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			e := t.est[i]
			i++
			if e.Unmapped == 0 {
				continue
			}
			pos := blockPos(fn.Name, b)
			if opts.Strict {
				d := diag.Diagnostic{
					Severity: diag.Error,
					Stage:    diag.StageAnnotate,
					Pos:      pos,
					Msg: fmt.Sprintf("PUM %q does not map op classes %v used by the block (%d ops; strict mode)",
						p.Name, UnmappedClasses(b, p), e.Unmapped),
				}
				opts.Diags.Add(d)
				return d
			}
			opts.Diags.Warnf(diag.StageAnnotate, pos,
				"PUM %q does not map op classes %v: %d ops estimated with fallback latency %d",
				p.Name, UnmappedClasses(b, p), e.Unmapped, opts.fallback())
		}
	}
	return nil
}

// blockPos renders a block location for diagnostics ("func/bb3").
func blockPos(fn string, b *cdfg.Block) string {
	return fmt.Sprintf("%s/bb%d", fn, b.ID)
}
