package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ese/internal/core"
	"ese/internal/jobspec"
)

// ErrHalted reports a run stopped by Options.HaltAfter — the kill/resume
// test hook. Completed points are checkpointed; rerunning with the same
// state directory resumes them.
var ErrHalted = errors.New("dse: halted after the requested number of points")

// Progress is one per-point progress event, fired in completion order
// (serialized — the callback never runs concurrently with itself).
type Progress struct {
	// Shard is the point's shard (index modulo the shard count).
	Shard int `json:"shard"`
	// Index is the point's stable expansion index.
	Index int `json:"index"`
	// Done counts completed points so far, resumed ones included.
	Done int `json:"done"`
	// Total is the expansion size.
	Total int `json:"total"`
	// Resumed marks points restored from a checkpoint, not re-simulated.
	Resumed bool `json:"resumed,omitempty"`
}

// Options configures Run.
type Options struct {
	// Shards is the checkpoint/progress granularity (default 1). The
	// shard of a point is its index modulo Shards; each shard owns one
	// append-only JSONL checkpoint file in StateDir.
	Shards int
	// Workers bounds the parallel point executions (default GOMAXPROCS).
	Workers int
	// StateDir, when non-empty, enables checkpointing and resume. The
	// directory is keyed by the sweep's fingerprint: resuming with a
	// different sweep is an error, and every restored row is verified
	// against the expanded point's spec fingerprint.
	StateDir string
	// Runner executes the points; nil uses a fresh Runner with a private
	// shared cache. Passing the daemon's Runner shares its cache.
	Runner *jobspec.Runner
	// HaltAfter stops the run (ErrHalted) after this many newly executed
	// points — the test and CI hook for kill/resume coverage. 0 = run to
	// completion.
	HaltAfter int
	// Progress, when non-nil, receives one event per completed point.
	Progress func(Progress)
}

// Summary carries the run's measurements beside the rows: everything
// host-dependent lives here, never in rows, so the row tables stay
// byte-identical across reruns. The cache counters do not depend on
// timing when the cache is unbounded, since it fills every schedule and
// estimate table once at any Workers; under a bound, the order of
// concurrent fills picks the evictions, and so the counts.
type Summary struct {
	Points  int   `json:"points"`
	Resumed int   `json:"resumed"`
	Ran     int   `json:"ran"`
	Shards  int   `json:"shards"`
	WallNs  int64 `json:"wall_ns"`
	// Cache deltas over the run (zero when the Runner has no cache).
	SchedHits   uint64 `json:"sched_hits"`
	SchedMisses uint64 `json:"sched_misses"`
	EstHits     uint64 `json:"est_hits"`
	EstMisses   uint64 `json:"est_misses"`
	// CacheHitRate is hits/(hits+misses) across both cache sides.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Result is one completed sweep: every row in index order, the Pareto
// front over (end time, area proxy, steps), and the run summary.
type Result struct {
	Rows    []Row   `json:"rows"`
	Pareto  []Row   `json:"pareto"`
	Summary Summary `json:"summary"`
}

// checkpoint is the JSONL record of one completed point. FP pins the
// point's spec fingerprint (the Runner's Result.Fingerprint), so stale
// state (a re-indexed sweep, a edited axis) is detected instead of
// silently mixed in.
type checkpoint struct {
	Index int    `json:"index"`
	FP    string `json:"fp"`
	Row   Row    `json:"row"`
}

// stateHeader is the content of StateDir/sweep.json.
type stateHeader struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", shard))
}

// loadShard restores one shard's checkpointed rows. A partial trailing
// line (the process was killed mid-append) is discarded and truncated
// away; a damaged complete line is an error. Every restored record is
// verified: index in range and on this shard, fingerprint equal to the
// expanded point's.
func loadShard(path string, shard, shards int, points []Point, rows []*Row) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	complete := data
	partial := false
	if i := bytes.LastIndexByte(data, '\n'); i < 0 {
		complete, partial = nil, len(data) > 0
	} else if i != len(data)-1 {
		complete, partial = data[:i+1], true
	}
	n := 0
	for lineNo, line := range bytes.Split(complete, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var cp checkpoint
		if err := json.Unmarshal(line, &cp); err != nil {
			return n, fmt.Errorf("dse: %s line %d: corrupt checkpoint: %w", path, lineNo+1, err)
		}
		if cp.Index < 0 || cp.Index >= len(points) || cp.Index%shards != shard {
			return n, fmt.Errorf("dse: %s line %d: index %d outside shard %d of %d points",
				path, lineNo+1, cp.Index, shard, len(points))
		}
		if fp := points[cp.Index].Spec.Fingerprint(); cp.FP != fp {
			return n, fmt.Errorf("dse: %s line %d: point %d fingerprint mismatch (state %.12s…, sweep %.12s…)",
				path, lineNo+1, cp.Index, cp.FP, fp)
		}
		if rows[cp.Index] == nil {
			n++
		}
		row := cp.Row
		rows[cp.Index] = &row
	}
	if partial {
		if err := os.Truncate(path, int64(len(complete))); err != nil {
			return n, fmt.Errorf("dse: truncating partial checkpoint line: %w", err)
		}
	}
	return n, nil
}

// Run expands and executes one sweep. See Options for sharding,
// checkpointing and resume behavior; the returned rows are complete and
// deterministic, or the error is ErrHalted / the first point failure /
// the context's cancellation.
func Run(ctx context.Context, sweep *Sweep, opts Options) (*Result, error) {
	start := time.Now()
	points, err := sweep.Expand()
	if err != nil {
		return nil, err
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	runner := opts.Runner
	if runner == nil {
		runner = &jobspec.Runner{Cache: core.NewCache()}
	}
	var before core.CacheStats
	if runner.Cache != nil {
		before = runner.Cache.Stats()
	}

	rows := make([]*Row, len(points))
	resumed := 0
	var shardFiles []*os.File
	var shardMus []sync.Mutex
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			return nil, err
		}
		hdrPath := filepath.Join(opts.StateDir, "sweep.json")
		fp := sweep.Fingerprint()
		if data, err := os.ReadFile(hdrPath); err == nil {
			var hdr stateHeader
			if err := json.Unmarshal(data, &hdr); err != nil || hdr.Fingerprint != fp {
				return nil, fmt.Errorf("dse: state dir %s belongs to a different sweep (want fingerprint %.12s…)",
					opts.StateDir, fp)
			}
		} else {
			hdr, _ := json.Marshal(stateHeader{Name: sweep.Normalized().Name, Fingerprint: fp})
			if err := os.WriteFile(hdrPath, append(hdr, '\n'), 0o644); err != nil {
				return nil, err
			}
		}
		shardFiles = make([]*os.File, shards)
		shardMus = make([]sync.Mutex, shards)
		for sh := 0; sh < shards; sh++ {
			n, err := loadShard(shardPath(opts.StateDir, sh), sh, shards, points, rows)
			if err != nil {
				return nil, err
			}
			resumed += n
			f, err := os.OpenFile(shardPath(opts.StateDir, sh), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			shardFiles[sh] = f
			defer f.Close()
		}
	}

	var mu sync.Mutex // serializes rows writes, the done counter and Progress
	done := 0
	emit := func(ev Progress) {
		if opts.Progress != nil {
			opts.Progress(ev)
		}
	}
	mu.Lock()
	for i, r := range rows {
		if r != nil {
			done++
			emit(Progress{Shard: i % shards, Index: i, Done: done, Total: len(points), Resumed: true})
		}
	}
	mu.Unlock()

	var pending []int
	for i := range points {
		if rows[i] == nil {
			pending = append(pending, i)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next, ran atomic.Int64
	var halted atomic.Bool
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				idx := pending[i]
				pt := points[idx]
				res, err := runner.Run(runCtx, &pt.Spec)
				if err != nil {
					if runCtx.Err() == nil || !halted.Load() {
						fail(fmt.Errorf("dse: point %d (%s/%s): %w", idx, pt.Spec.App, pt.Spec.Design, err))
					}
					return
				}
				// Claim a place in the HaltAfter budget before checkpointing:
				// a point past it is dropped, however many finish together.
				n := int(ran.Add(1))
				if opts.HaltAfter > 0 && n > opts.HaltAfter {
					return
				}
				row := rowFor(pt, res)
				if shardFiles != nil {
					sh := idx % shards
					line, err := json.Marshal(checkpoint{Index: idx, FP: res.Fingerprint, Row: row})
					if err != nil {
						fail(err)
						return
					}
					shardMus[sh].Lock()
					_, werr := shardFiles[sh].Write(append(line, '\n'))
					shardMus[sh].Unlock()
					if werr != nil {
						fail(fmt.Errorf("dse: checkpointing point %d: %w", idx, werr))
						return
					}
				}
				mu.Lock()
				rows[idx] = &row
				done++
				emit(Progress{Shard: idx % shards, Index: idx, Done: done, Total: len(points)})
				mu.Unlock()
				if n == opts.HaltAfter {
					halted.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if halted.Load() {
		return nil, ErrHalted
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]Row, len(points))
	for i, r := range rows {
		if r == nil {
			return nil, fmt.Errorf("dse: point %d never completed", i)
		}
		out[i] = *r
	}
	sum := Summary{
		Points:  len(points),
		Resumed: resumed,
		Ran:     int(ran.Load()),
		Shards:  shards,
		WallNs:  time.Since(start).Nanoseconds(),
	}
	if runner.Cache != nil {
		after := runner.Cache.Stats()
		sum.SchedHits = after.SchedHits - before.SchedHits
		sum.SchedMisses = after.SchedMisses - before.SchedMisses
		sum.EstHits = after.EstHits - before.EstHits
		sum.EstMisses = after.EstMisses - before.EstMisses
		hits := sum.SchedHits + sum.EstHits
		total := hits + sum.SchedMisses + sum.EstMisses
		if total > 0 {
			sum.CacheHitRate = float64(hits) / float64(total)
		}
	}
	return &Result{Rows: out, Pareto: ParetoFront(out), Summary: sum}, nil
}
