package main

import (
	"context"
	"sync"
	"time"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/jobspec"
	"ese/internal/metrics"
)

// replayEvery picks the operations whose front end a traced run replays
// layer by layer after the window (one in replayEvery).
const replayEvery = 16

// runJob runs one spec. Traced, it is a "jobspec.run" span whose children
// are the pipeline stages reported by the runner's stage hook — the same
// code path as Runner.Run.
func runJob(ctx context.Context, r *jobspec.Runner, s *jobspec.Spec, tr *tracer, track int, op int64, parent int32) (*jobspec.Result, error) {
	if tr == nil {
		return r.Run(ctx, s)
	}
	id := tr.begin("jobspec.run", track, op, parent)
	defer tr.end(id)
	return r.RunWith(ctx, s, jobspec.RunOpts{StageHook: tr.stageHook(track, op, id)})
}

// replayItem is an operation recorded during a traced window for replay
// after it.
type replayItem struct {
	spec  jobspec.Spec
	track int
	op    int64
}

// replayLog collects replay items from concurrent clients.
type replayLog struct {
	mu    sync.Mutex
	items []replayItem
	seen  int
}

// note records every replayEvery-th operation offered.
func (l *replayLog) note(s *jobspec.Spec, track int, op int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen%replayEvery == 0 {
		l.items = append(l.items, replayItem{spec: *s, track: track, op: op})
	}
	l.seen++
}

func (l *replayLog) take() []replayItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	items := l.items
	l.items = nil
	return items
}

// jobSource returns the C source a spec compiles: the generated app
// source of a TLM job (timed as "apps.source") or an estimate job's inline
// code.
func jobSource(s *jobspec.Spec) (name, src string, err error) {
	if s.Kind == jobspec.KindEstimate {
		return s.Source.Name, s.Source.Code, nil
	}
	n := s.Normalized()
	if n.App == jobspec.AppJPEG {
		cfg := apps.JPEGConfig{Blocks: n.Frames, Seed: n.Seed}
		if n.Design == "SW+DCT" {
			return "jpeg_SW+DCT.c", apps.JPEGSourceDCTHW(cfg), nil
		}
		return "jpeg_SW.c", apps.JPEGSource(cfg), nil
	}
	src, err = apps.MP3Source(n.Design, apps.MP3Config{Frames: n.Frames, Seed: n.Seed})
	return "mp3_" + n.Design + ".c", src, err
}

// replayFrontend re-runs an operation's front end one layer at a time as
// a "replay.frontend" span: source generation, parse, check and lower.
// That splits the build_design self time of a TLM job, where the pipeline
// compiles the app without stage hooks.
func replayFrontend(tr *tracer, it replayItem) error {
	id := tr.begin("replay.frontend", it.track, it.op, 0)
	defer tr.end(id)
	step := func(name string, f func() error) error {
		sid := tr.begin(name, it.track, it.op, id)
		defer tr.end(sid)
		return f()
	}
	var name, src string
	var f *cfront.File
	var u *cfront.Unit
	name = it.spec.Source.Name
	if it.spec.Kind == jobspec.KindEstimate {
		src = it.spec.Source.Code
	} else if err := step("apps.source", func() (err error) { name, src, err = jobSource(&it.spec); return }); err != nil {
		return err
	}
	if err := step("cfront.parse", func() (err error) { f, err = cfront.Parse(name, src); return }); err != nil {
		return err
	}
	if err := step("cfront.check", func() (err error) { u, err = cfront.Check(f); return }); err != nil {
		return err
	}
	return step("cdfg.lower", func() error { _, err := cdfg.Lower(u); return err })
}

// snapshotCounters reads a metric snapshot and schedule-cache statistics
// as counters, under the names esed's /metrics uses.
func snapshotCounters(snap metrics.Snapshot, cs core.CacheStats) counters {
	c := counters{}
	for k, v := range snap.Counters {
		c[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		c[k] = float64(v)
	}
	for k, h := range snap.Histograms {
		c[k+".sum"] = h.Sum
		c[k+".count"] = float64(h.Count)
	}
	c["cache.sched.hits"] += float64(cs.SchedHits)
	c["cache.sched.misses"] += float64(cs.SchedMisses)
	c["cache.est.hits"] += float64(cs.EstHits)
	c["cache.est.misses"] += float64(cs.EstMisses)
	return c
}

// cacheTally accumulates the statistics of per-page schedule caches, for
// workloads that start every page with an empty cache.
type cacheTally struct {
	mu sync.Mutex
	cs core.CacheStats
}

func (t *cacheTally) add(cs core.CacheStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cs.SchedHits += cs.SchedHits
	t.cs.SchedMisses += cs.SchedMisses
	t.cs.EstHits += cs.EstHits
	t.cs.EstMisses += cs.EstMisses
}

func (t *cacheTally) get() core.CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cs
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterLayers derives the per-layer metrics every workload reports from
// counter deltas and Go runtime statistics over a window.
func counterLayers(m map[string]float64, w *window) {
	work := float64(w.work)
	c := w.count
	sh, sm := c["cache.sched.hits"], c["cache.sched.misses"]
	eh, em := c["cache.est.hits"], c["cache.est.misses"]
	m["core.sched_hit_ratio"] = ratio(sh, sh+sm)
	m["core.est_hit_ratio"] = ratio(eh, eh+em)
	m["core.cache_hit_rate"] = ratio(sh+eh, sh+sm+eh+em)
	m["core.sched_misses_per_op"] = ratio(sm, work)
	m["tlm.steps_per_op"] = ratio(c["tlm.steps"], work)
	m["sim.dispatches_per_op"] = ratio(c["sim.dispatches"], work)
	m["sim.fires_per_op"] = ratio(c["sim.fires"], work)
	m["tlm.bus.transfers_per_op"] = ratio(c["tlm.bus.transfers"], work)
	m["tlm.bus.words_per_op"] = ratio(c["tlm.bus.words"], work)
	m["sim.queue.max"] = c["sim.queue.max"]
	m["server.coalesced_ratio"] = ratio(c["server.jobs.coalesced"], float64(w.ops))
	m["server.rejected"] = c["server.jobs.rejected"]
	m["go.mallocs_per_op"] = ratio(float64(w.mem.Mallocs), work)
	m["go.bytes_per_op"] = ratio(float64(w.mem.TotalAlloc), work)
	m["go.gc_pause_ms"] = ms(time.Duration(w.mem.PauseTotalNs))
}

// jobLayers derives the span-based per-layer metrics of workloads that
// run jobs in process (dse_sweep, tlm_long): set-up calibration, the
// replayed front end, and the self time of each layer inside the jobs.
func jobLayers(tr *tracer, w *window) map[string]float64 {
	st := tr.stats(notUnder("replay.frontend"))
	fe := tr.stats(underParent("replay.frontend"))
	work := float64(w.work)
	jobs := ms(st.total["jobspec.run"])
	build := ms(st.self["jobspec.run"])
	anno := ms(st.total["core.annotate"])
	sim := ms(st.total["tlm.simulate"])
	m := map[string]float64{
		"calib.calibrate_ms":             st.medianMs("jobspec.base_model"),
		"jobspec.build_design_ms_per_op": ratio(build, work),
		"core.annotate_ms_per_op":        ratio(anno, work),
		"tlm.simulate_ms_per_op":         ratio(sim, work),
		"jobspec.build_design_share":     ratio(build, jobs),
		"core.annotate_share":            ratio(anno, jobs),
		"tlm.simulate_share":             ratio(sim, jobs),
	}
	frontendLayers(m, fe)
	return m
}

// frontendLayers reports the mean replayed time of each front-end layer.
func frontendLayers(m map[string]float64, fe spanStats) {
	m["apps.source_ms"] = fe.meanMs("apps.source")
	m["cfront.parse_ms"] = fe.meanMs("cfront.parse")
	m["cfront.check_ms"] = fe.meanMs("cfront.check")
	m["cdfg.lower_ms"] = fe.meanMs("cdfg.lower")
}
