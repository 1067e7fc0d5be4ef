package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ese/internal/core"
	"ese/internal/dse"
	"ese/internal/jobspec"
	"ese/internal/metrics"
)

// dseSweep runs the committed sweep (workloads/dse_sweep.json) through
// dse.Run on two workers. A page is the sweep at one datapath — one
// pipeline depth, issue width and FU mix — for one workload seed, started
// with an empty schedule cache. Points of one design share a program, so
// most of them hit the cache, and about half of a point is the front end
// rebuilding that program. This is where a lowered-program memo or "count
// once, score many" shows.
type dseSweep struct{}

const (
	dseWorkers = 2
	dseSeeds   = 8 // workload seeds per datapath in the page pool
	dseTag     = 0xD5E0_0001
)

func (dseSweep) clients() int { return 1 }

func (dseSweep) pool(sz sizing) int { return dseDatapaths(sz.sweep) * dseSeeds }
func (dseSweep) memWork() int       { return 4800 }

// dseDatapaths counts the sweep's (depth, issue, FU mix) combinations.
func dseDatapaths(sw *dse.Sweep) int {
	return max(1, len(sw.Axes.Depths)) * max(1, len(sw.Axes.Issues)) * max(1, len(sw.Axes.FUMixes))
}

// dsePage returns the sweep of one page: datapath page%n with workload
// seed number page/n.
func dsePage(sz sizing, page int) dse.Sweep {
	sw := *sz.sweep
	ax := sz.sweep.Axes
	n := dseDatapaths(sz.sweep)
	dp := page % n
	pick := func(size int) int {
		i := dp % size
		dp /= size
		return i
	}
	if len(ax.Depths) > 0 {
		sw.Axes.Depths = []int{ax.Depths[pick(len(ax.Depths))]}
	}
	if len(ax.Issues) > 0 {
		sw.Axes.Issues = []int{ax.Issues[pick(len(ax.Issues))]}
	}
	if len(ax.FUMixes) > 0 {
		sw.Axes.FUMixes = []map[string]int{ax.FUMixes[pick(len(ax.FUMixes))]}
	}
	sw.Seed = inputSeed(dseTag, page/n, 0)
	return sw
}

type dseInstance struct {
	sz      sizing
	runner  *jobspec.Runner
	reg     *metrics.Registry
	caches  cacheTally
	replays replayLog
}

func (dseSweep) setup(ctx context.Context, sz sizing, tr *tracer) (instance, error) {
	reg := metrics.NewRegistry()
	in := &dseInstance{sz: sz, reg: reg, runner: &jobspec.Runner{Metrics: reg}}
	if err := warmBaseModel(in.runner, tr); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *dseInstance) page(ctx context.Context, client, page int, tr *tracer) pageResult {
	sw := dsePage(in.sz, page)
	cache := core.NewCache()
	in.runner.Cache = cache
	start := time.Now()
	rows, n, err := in.sweep(ctx, &sw, tr)
	r := pageResult{ops: n, lat: []float64{ms(time.Since(start))}}
	in.caches.add(cache.Stats())
	if err == nil {
		r.digest, err = rowsDigest(rows)
	}
	if err != nil {
		r.failed, r.err = n, fmt.Errorf("dse_sweep page %d: %w", page, err)
		return r
	}
	r.work = len(rows)
	return r
}

// rowsDigest is the digest of the sweep's JSON result table.
func rowsDigest(rows []dse.Row) (string, error) {
	var buf bytes.Buffer
	if err := dse.WriteJSON(&buf, rows); err != nil {
		return "", err
	}
	return digestHex(buf.Bytes()), nil
}

// sweep runs one page: through dse.Run untraced; traced, by running the
// expanded points through Runner.RunWith on the same number of workers,
// so each point's stages become spans.
func (in *dseInstance) sweep(ctx context.Context, sw *dse.Sweep, tr *tracer) ([]dse.Row, int, error) {
	if tr == nil {
		res, err := dse.Run(ctx, sw, dse.Options{Workers: dseWorkers, Runner: in.runner})
		if err != nil {
			pts, _ := sw.Expand()
			return nil, len(pts), err
		}
		return res.Rows, len(res.Rows), nil
	}
	points, err := sw.Expand()
	if err != nil {
		return nil, 0, err
	}
	rows := make([]dse.Row, len(points))
	errs := make([]error, dseWorkers)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < dseWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(points) || errs[w] != nil {
					return
				}
				pt := points[k]
				op := tr.newOp()
				res, err := runJob(ctx, in.runner, &pt.Spec, tr, w, op, 0)
				if err != nil {
					errs[w] = fmt.Errorf("point %d: %w", pt.Index, err)
					continue
				}
				rows[k] = sweepRow(pt, res)
				in.replays.note(&pt.Spec, w, op)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, len(points), err
		}
	}
	return rows, len(points), nil
}

// sweepRow builds the result row dse.Run would emit for a point, so the
// traced run's rows are checked against the same golden digest.
func sweepRow(pt dse.Point, res *jobspec.Result) dse.Row {
	r := dse.Row{
		Index: pt.Index, App: pt.Spec.App, Design: pt.Spec.Design,
		ICache: pt.Spec.ICache, DCache: pt.Spec.DCache, Area: pt.Area,
	}
	if t := pt.Spec.Tune; t != nil {
		r.Depth, r.Issue = t.Depth, t.Issue
		r.BranchMiss, r.BranchPenalty = t.BranchMiss, t.BranchPenalty
		keys := make([]string, 0, len(t.FUs))
		for k := range t.FUs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			keys[i] = fmt.Sprintf("%s=%d", k, t.FUs[k])
		}
		r.FUs = strings.Join(keys, ",")
	}
	if res.TLM != nil {
		r.EndPs, r.BusCycles, r.Steps = res.TLM.EndPs, res.TLM.BusCycles, res.TLM.Steps
	}
	return r
}

func (in *dseInstance) counters(context.Context) (counters, error) {
	return snapshotCounters(in.reg.Snapshot(), in.caches.get()), nil
}

func (in *dseInstance) layers(ctx context.Context, tr *tracer, w *window) (map[string]float64, error) {
	for _, it := range in.replays.take() {
		if err := replayFrontend(tr, it); err != nil {
			return nil, err
		}
	}
	m := jobLayers(tr, w)
	return m, nil
}

func (in *dseInstance) trackName(t int) string { return fmt.Sprintf("worker %d", t) }

func (in *dseInstance) close() error { return nil }

// golden digests one page through dse.Run, then re-runs every point on the
// compiled engine (the default picks the generated one) and requires the
// same end time, bus cycles and steps.
func (in *dseInstance) golden(ctx context.Context, page int) (string, error) {
	sw := dsePage(in.sz, page)
	in.runner.Cache = core.NewCache()
	rows, _, err := in.sweep(ctx, &sw, nil)
	if err != nil {
		return "", err
	}
	digest, err := rowsDigest(rows)
	if err != nil {
		return "", err
	}
	points, err := sw.Expand()
	if err != nil {
		return "", err
	}
	errs := make(chan error, len(points))
	var wg sync.WaitGroup
	sem := make(chan struct{}, dseWorkers)
	for k := range points {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			s := points[k].Spec
			s.Exec = "compiled"
			got, err := in.runner.Run(ctx, &s)
			if err != nil {
				errs <- err
				return
			}
			row := rows[k]
			if got.TLM.EndPs != row.EndPs || got.TLM.BusCycles != row.BusCycles || got.TLM.Steps != row.Steps {
				errs <- fmt.Errorf("dse_sweep page %d point %d: compiled engine (%d ps, %d cycles, %d steps), default (%d ps, %d cycles, %d steps)",
					page, k, got.TLM.EndPs, got.TLM.BusCycles, got.TLM.Steps, row.EndPs, row.BusCycles, row.Steps)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return "", err
	}
	return digest, nil
}
