// Package engine reifies the estimation flow as a staged pipeline:
//
//	Parse → Check → Lower → Simplify → Annotate → Build/Simulate
//
// Three entry points cover the stages: Compile runs the front end (parse
// through simplify, each stage timed and tagged) from source to a
// cdfg.Program, Annotate and its variants estimate a program against a
// PE model (annotate.Annotated), and Simulate — with Delays for callers
// that only need the per-PE delay maps — runs a mapped design
// (tlm.Result). A Pipeline owns a content-addressed schedule/estimate
// cache (see core.Cache) and a bounded annotation worker pool:
// constructing one pipeline and pushing a multi-configuration retarget
// sweep through it computes every Algorithm 1 schedule exactly once — the
// cheap re-annotation the paper's Table 1 sells ("Anno." column) — while
// the statistical Algorithm 2 composition is recomputed per
// configuration.
//
// The pipeline is the architectural seam the rest of the system hangs off:
// internal/experiments drives its sweeps through one Pipeline, the CLIs
// construct one each, and the public ese package keeps its historical
// one-shot functions as thin wrappers over a process-wide default
// pipeline.
package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"ese/internal/annotate"
	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/interp"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
	"ese/internal/verify"
)

// Options configures a Pipeline.
type Options struct {
	// Simplify runs compiler-style CFG cleanup (jump threading, block
	// merging) between Lower and Annotate, growing basic blocks.
	Simplify bool
	// Workers bounds the annotation worker pool; zero or negative uses
	// GOMAXPROCS, 1 annotates serially.
	Workers int
	// NoCache disables schedule/estimate memoization.
	NoCache bool
	// CacheLimit bounds the schedule and estimate maps to that many
	// entries each (random-replacement beyond it, counted as evictions);
	// zero or negative means unbounded.
	CacheLimit int
	// Detail selects the PUM sub-models Annotate applies; nil means
	// core.FullDetail (the paper's full Algorithm 2). AnnotateDetail
	// overrides it per call.
	Detail *core.Detail
	// Strict makes annotation fail (through the Ctx entry points) when the
	// PUM does not map an op class the program uses, instead of degrading
	// to fallback latencies.
	Strict bool
	// FallbackCycles is the stage-0 latency charged to unmapped op classes
	// in graceful-degradation mode; zero or negative selects
	// core.DefaultFallbackCycles.
	FallbackCycles int
	// Timeout, when positive, arms a wall-clock watchdog on every Ctx entry
	// point (CompileCtx, AnnotateCtx, SimulateCtx): the call is abandoned
	// with diag.ErrDeadline once that much host time has elapsed.
	Timeout time.Duration
	// Engine is the pipeline-wide default execution engine for Simulate
	// runs: interp.EngineAuto (the zero value) uses the registered
	// generated engine, else the flat compiled engine. A per-run
	// tlm.Options.Engine other than auto takes precedence.
	Engine interp.EngineKind
	// Verify runs the static IR verifier after the front end (CompileCtx),
	// the PUM lint before annotation (AnnotateCtx and friends), and the
	// full design verification before simulation (SimulateCtx). Findings
	// land in Diagnostics(); Error-severity findings fail the stage.
	Verify bool
	// Werror promotes verification Warnings (e.g. op-mapping coverage
	// gaps) to stage failures. Only meaningful with Verify.
	Werror bool
	// Cache, when non-nil, injects a shared schedule/estimate cache
	// instead of the per-pipeline one New would otherwise construct.
	// Several pipelines (one per job in the esed daemon) can point at one
	// process-wide handle so every request shares warmed schedules.
	// NoCache still wins; CacheLimit is ignored for an injected cache
	// (the owner chose its bound).
	Cache *core.Cache
	// Metrics, when non-nil, injects a shared metric registry instead of
	// a per-pipeline one, letting a long-lived process aggregate stage
	// timings and simulation counters across every pipeline it builds.
	Metrics *metrics.Registry
	// StageHook, when non-nil, is called after every pipeline stage
	// completes with the stage tag and its wall-clock duration — the
	// progress-streaming seam (esed's SSE endpoint). It is invoked
	// synchronously on the running goroutine and must be cheap and
	// goroutine-safe.
	StageHook func(stage diag.Stage, d time.Duration)
}

// Stats aggregates the pipeline's observability counters: the
// schedule/estimate cache hit ratios (embedded) plus the graceful-
// degradation tallies accumulated across every annotation run.
type Stats struct {
	core.CacheStats
	// UnmappedOps counts operations estimated with fallback latency
	// because the PUM does not map their class.
	UnmappedOps uint64
	// DegradedBlocks counts basic blocks containing at least one such op.
	DegradedBlocks uint64
}

// Pipeline is a staged estimation flow with a shared schedule/estimate
// cache. Construct one per sweep (or one per process) and reuse it: the
// cache is keyed on content fingerprints, so recompiling the same source
// or retargeting the statistical models still hits. Safe for concurrent
// use by multiple goroutines.
type Pipeline struct {
	opts    Options
	detail  core.Detail
	cache   *core.Cache
	diags   diag.List
	metrics *metrics.Registry

	unmappedOps    atomic.Uint64
	degradedBlocks atomic.Uint64
}

// New constructs a pipeline with the given options.
func New(opts Options) *Pipeline {
	pl := &Pipeline{opts: opts, detail: core.FullDetail, metrics: opts.Metrics}
	if pl.metrics == nil {
		pl.metrics = metrics.NewRegistry()
	}
	if opts.Detail != nil {
		pl.detail = *opts.Detail
	}
	if !opts.NoCache {
		if opts.Cache != nil {
			pl.cache = opts.Cache
		} else {
			pl.cache = core.NewCacheLimit(opts.CacheLimit)
		}
	}
	return pl
}

// Detail returns the detail level Annotate applies.
func (pl *Pipeline) Detail() core.Detail { return pl.detail }

// Stats returns the counters accumulated so far: cache hits/misses (zero
// when the cache is disabled) and the graceful-degradation tallies.
func (pl *Pipeline) Stats() Stats {
	s := Stats{
		UnmappedOps:    pl.unmappedOps.Load(),
		DegradedBlocks: pl.degradedBlocks.Load(),
	}
	if pl.cache != nil {
		s.CacheStats = pl.cache.Stats()
	}
	return s
}

// Diagnostics returns the pipeline's diagnostic sink: structured,
// stage-tagged warnings and errors collected by every run through the
// pipeline (degraded blocks, cancellations, contained panics).
func (pl *Pipeline) Diagnostics() *diag.List { return &pl.diags }

// Metrics returns the pipeline's metric registry: per-stage wall-clock
// histograms ("pipeline.stage.<stage>.seconds"), the annotation pool's
// counters ("est.*"), and — when the pipeline simulates — the TLM's
// counters ("tlm.*", "sim.*"). See DESIGN.md, "Observability".
func (pl *Pipeline) Metrics() *metrics.Registry { return pl.metrics }

// MetricsSnapshot returns a point-in-time view of every pipeline metric,
// folding in the schedule/estimate cache counters ("cache.*") and the
// graceful-degradation tallies so one call captures the whole picture.
func (pl *Pipeline) MetricsSnapshot() metrics.Snapshot {
	snap := pl.metrics.Snapshot()
	if pl.cache != nil {
		cs := pl.cache.Stats()
		snap.Counters["cache.sched.hits"] = cs.SchedHits
		snap.Counters["cache.sched.misses"] = cs.SchedMisses
		snap.Counters["cache.est.hits"] = cs.EstHits
		snap.Counters["cache.est.misses"] = cs.EstMisses
		snap.Counters["cache.evictions"] = cs.Evictions
		sched, est := pl.cache.Len()
		snap.Gauges["cache.entries.sched"] = int64(sched)
		snap.Gauges["cache.entries.est"] = int64(est)
	}
	snap.Counters["degrade.unmapped_ops"] = pl.unmappedOps.Load()
	snap.Counters["degrade.blocks"] = pl.degradedBlocks.Load()
	return snap
}

// timeStage records one stage execution into the registry and notifies
// the stage hook, when one is installed.
func (pl *Pipeline) timeStage(stage diag.Stage, start time.Time) {
	d := time.Since(start)
	pl.metrics.Histogram("pipeline.stage." + string(stage) + ".seconds").
		Observe(d.Seconds())
	if pl.opts.StageHook != nil {
		pl.opts.StageHook(stage, d)
	}
}

// estOpts bundles the pipeline's worker bound, cache, degradation policy
// and diagnostic sink for the core estimator.
func (pl *Pipeline) estOpts() core.EstOptions {
	return core.EstOptions{
		Workers:        pl.opts.Workers,
		Cache:          pl.cache,
		Strict:         pl.opts.Strict,
		FallbackCycles: pl.opts.FallbackCycles,
		Diags:          &pl.diags,
		Metrics:        pl.metrics,
	}
}

// withTimeout applies the pipeline's watchdog to a context.
func (pl *Pipeline) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if pl.opts.Timeout > 0 {
		return context.WithTimeout(ctx, pl.opts.Timeout)
	}
	return ctx, func() {}
}

// runVerify records verification findings in the pipeline's diagnostic
// sink and returns the first failing one under the Werror convention
// (Errors always fail, Warnings fail only with Options.Werror). A nil
// return means the artifact may proceed.
func (pl *Pipeline) runVerify(ds []diag.Diagnostic) error {
	start := time.Now()
	for _, d := range ds {
		pl.diags.Add(d)
	}
	pl.timeStage(diag.StageVerify, start)
	if d, bad := verify.Failure(ds, pl.opts.Werror); bad {
		return d
	}
	return nil
}

// recordDegradation folds one annotation's degradation tallies into the
// pipeline counters.
func (pl *Pipeline) recordDegradation(a *annotate.Annotated) {
	if a == nil {
		return
	}
	if n := a.UnmappedOps(); n > 0 {
		pl.unmappedOps.Add(uint64(n))
	}
	if n := a.DegradedBlocks(); n > 0 {
		pl.degradedBlocks.Add(uint64(n))
	}
}

// ---------------------------------------------------------------- Front end

// Compile runs the front end — parse, check, lower and (when configured)
// simplify — on one C-subset source.
func (pl *Pipeline) Compile(name, src string) (*cdfg.Program, error) {
	return pl.CompileCtx(context.Background(), name, src)
}

// CompileCtx is Compile with panic containment and cancellation: every
// front-end stage runs under a recover guard, so a malformed input that
// trips a bug in the parser or lowerer surfaces as a stage-tagged
// *diag.PanicError instead of killing the process.
func (pl *Pipeline) CompileCtx(ctx context.Context, name, src string) (*cdfg.Program, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	var (
		f    *cfront.File
		u    *cfront.Unit
		prog *cdfg.Program
	)
	stages := []struct {
		stage diag.Stage
		run   func() error
	}{
		{diag.StageParse, func() (err error) { f, err = cfront.Parse(name, src); return }},
		{diag.StageCheck, func() (err error) { u, err = cfront.Check(f); return }},
		{diag.StageLower, func() (err error) { prog, err = cdfg.Lower(u); return }},
		{diag.StageSimplify, func() error {
			if pl.opts.Simplify {
				cdfg.SimplifyProgram(prog)
			}
			return nil
		}},
		{diag.StageVerify, func() error {
			if !pl.opts.Verify {
				return nil
			}
			return pl.runVerify(verify.Program(prog))
		}},
	}
	for _, s := range stages {
		err := diag.FromContext(ctx)
		if err == nil {
			start := time.Now()
			err = diag.Guard(s.stage, s.run)
			pl.timeStage(s.stage, start)
		}
		if err != nil {
			var d diag.Diagnostic
			if errors.As(err, &d) {
				// Verification failures arrive as ready-made diagnostics,
				// already recorded by runVerify.
				return nil, d
			}
			d = diag.Diagnostic{Severity: diag.Error, Stage: s.stage, Msg: err.Error(), Err: err}
			pl.diags.Add(d)
			return nil, d
		}
	}
	return prog, nil
}

// ---------------------------------------------------------------- Annotate

// Annotate estimates every basic block of the program against the PE
// model at the pipeline's detail level, through the worker pool and the
// schedule/estimate cache. Unmapped op classes always degrade to fallback
// latencies on this legacy path; use AnnotateCtx for strict mode.
func (pl *Pipeline) Annotate(prog *cdfg.Program, p *pum.PUM) *annotate.Annotated {
	return pl.AnnotateDetail(prog, p, pl.detail)
}

// AnnotateDetail is Annotate with an explicit detail level (used by the
// PUM-detail ablation).
func (pl *Pipeline) AnnotateDetail(prog *cdfg.Program, p *pum.PUM, detail core.Detail) *annotate.Annotated {
	start := time.Now()
	a := annotate.AnnotateWith(prog, p, detail, pl.estOpts())
	pl.timeStage(diag.StageAnnotate, start)
	pl.recordDegradation(a)
	return a
}

// AnnotateCtx estimates every basic block under a context with panic
// containment: cancellation or deadline expiry aborts the worker fan-out
// with diag.ErrCanceled/ErrDeadline, strict mode (Options.Strict) rejects
// PUMs that do not map every op class the program uses, and a panic inside
// the estimator is returned as a stage-tagged *diag.PanicError.
func (pl *Pipeline) AnnotateCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM) (*annotate.Annotated, error) {
	return pl.AnnotateDetailCtx(ctx, prog, p, pl.detail)
}

// AnnotateDetailCtx is AnnotateCtx with an explicit detail level.
func (pl *Pipeline) AnnotateDetailCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail core.Detail) (*annotate.Annotated, error) {
	// Lint the model against the op classes the program uses before
	// spending any scheduling work on it.
	return pl.annotateDetailCtx(ctx, prog, p, detail, pl.opts.Verify)
}

// annotateDetailCtx is the shared annotation path; lint selects the PUM
// lint, which the design-level paths disable because verify.Design has
// already linted each PE model scoped to its own entry functions (a
// whole-program lint would hold a hardware PE to op classes it never
// executes).
func (pl *Pipeline) annotateDetailCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail core.Detail, lint bool) (*annotate.Annotated, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	if lint {
		if err := pl.runVerify(verify.Model(p, prog)); err != nil {
			return nil, err
		}
	}
	var a *annotate.Annotated
	start := time.Now()
	err := diag.Guard(diag.StageAnnotate, func() (err error) {
		a, err = annotate.AnnotateCtx(ctx, prog, p, detail, pl.estOpts())
		return
	})
	pl.timeStage(diag.StageAnnotate, start)
	if err != nil {
		// The core estimator records cancellation and strict-mode errors in
		// the shared diagnostic list itself; only contained panics need to
		// be added here.
		var pe *diag.PanicError
		if errors.As(err, &pe) {
			pl.diags.AddError(diag.StageAnnotate, err)
		}
		return nil, err
	}
	pl.recordDegradation(a)
	return a, nil
}

// ------------------------------------------------------------- Build / Sim

// Delays annotates a design's program once per PE through the cache and
// returns the per-PE delay maps the timed TLM consumes, plus the
// wall-clock annotation time (the paper's "Anno." column).
func (pl *Pipeline) Delays(d *platform.Design, detail core.Detail) (map[string]map[*cdfg.Block]float64, time.Duration) {
	out, dur, _ := pl.DelaysCtx(context.Background(), d, detail)
	return out, dur
}

// DelaysCtx is Delays under a context: cancellation or a strict-mode
// mapping failure aborts the per-PE annotation loop with the typed error.
// With Options.Verify the whole design is verified first (program, PE
// models scoped to their entries, channel topology).
func (pl *Pipeline) DelaysCtx(ctx context.Context, d *platform.Design, detail core.Detail) (map[string]map[*cdfg.Block]float64, time.Duration, error) {
	return pl.delaysCtx(ctx, d, detail, false)
}

// delaysCtx computes per-PE delay maps; verified says the caller already
// ran the design-level verification, so it is not repeated.
func (pl *Pipeline) delaysCtx(ctx context.Context, d *platform.Design, detail core.Detail, verified bool) (map[string]map[*cdfg.Block]float64, time.Duration, error) {
	start := time.Now()
	if pl.opts.Verify && !verified {
		if err := pl.runVerify(verify.Design(d)); err != nil {
			return nil, time.Since(start), err
		}
	}
	out := make(map[string]map[*cdfg.Block]float64, len(d.PEs))
	for _, pe := range d.PEs {
		a, err := pl.annotateDetailCtx(ctx, d.Program, pe.PUM, detail, false)
		if err != nil {
			return nil, time.Since(start), err
		}
		out[pe.Name] = a.Delays()
	}
	return out, time.Since(start), nil
}

// Simulate runs the TLM of a design. For timed runs the annotation phase
// goes through the pipeline's cache and worker pool, so a sweep that
// simulates several configurations of one program reuses every schedule
// after the first.
func (pl *Pipeline) Simulate(d *platform.Design, opts tlm.Options) (*tlm.Result, error) {
	return pl.SimulateCtx(context.Background(), d, opts)
}

// SimulateCtx is Simulate under a context with panic containment and the
// pipeline's watchdog: cancellation or deadline expiry interrupts both the
// annotation fan-out and the simulation event loop. On cancellation mid-
// simulation the partial tlm.Result is returned together with
// diag.ErrCanceled/ErrDeadline; a panic anywhere in the stage surfaces as
// a *diag.PanicError instead of killing the process.
func (pl *Pipeline) SimulateCtx(ctx context.Context, d *platform.Design, opts tlm.Options) (*tlm.Result, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	if pl.opts.Verify {
		if err := pl.runVerify(verify.Design(d)); err != nil {
			return nil, err
		}
	}
	if opts.Timed && opts.Delays == nil {
		dm, annoTime, err := pl.delaysCtx(ctx, d, opts.Detail, true)
		if err != nil {
			return nil, err
		}
		opts.Delays, opts.AnnoTime = dm, annoTime
	}
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	if opts.Metrics == nil {
		opts.Metrics = pl.metrics
	}
	if opts.Engine == interp.EngineAuto {
		opts.Engine = pl.opts.Engine
	}
	var res *tlm.Result
	start := time.Now()
	err := diag.Guard(diag.StageSimulate, func() (err error) {
		res, err = tlm.Run(d, opts)
		return
	})
	pl.timeStage(diag.StageSimulate, start)
	if err != nil {
		pl.diags.AddError(diag.StageSimulate, err)
	}
	return res, err
}

// RunFunctional executes the untimed TLM of a design.
func (pl *Pipeline) RunFunctional(d *platform.Design) (*tlm.Result, error) {
	return pl.Simulate(d, tlm.Options{Timed: false})
}

// RunTimed executes the timed TLM of a design with the pipeline's detail
// level and transaction-boundary waits, the configuration the paper
// evaluates.
func (pl *Pipeline) RunTimed(d *platform.Design) (*tlm.Result, error) {
	return pl.Simulate(d, tlm.Options{
		Timed:    true,
		WaitMode: tlm.WaitAtTransactions,
		Detail:   pl.detail,
	})
}
