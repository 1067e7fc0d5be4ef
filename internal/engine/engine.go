// Package engine reifies the estimation flow as a staged pipeline:
//
//	Parse → Check → Lower → Simplify → Annotate → Build/Simulate
//
// The pipeline is the only place annotation happens. Its entry points
// cover the stages: CompileCtx runs the front end (parse through simplify,
// each stage timed and tagged) from source to a cdfg.Program; AnnotateCtx
// estimates a program against a PE model (annotate.Annotated); DelaysCtx
// estimates every PE of a mapped design into the per-PE delay tables the
// timed TLM and the Go generator consume; SimulateCtx runs a mapped design
// (tlm.Result), annotating it first when the caller passes no tables.
// Every annotation the pipeline makes on its own uses Options.Detail;
// DelaysCtx's detail argument is the one per-call override, for the
// ablations that vary detail. Compile, Simulate, RunTimed and
// RunFunctional are context-free forms with the same semantics.
//
// A Pipeline owns a content-addressed schedule/estimate cache (see
// core.Cache) and a bounded worker pool that schedules the blocks the
// cache misses: constructing one pipeline and pushing a
// multi-configuration retarget sweep through it computes every Algorithm 1
// schedule exactly once — the cheap re-annotation the paper's Table 1
// sells ("Anno." column) — while the statistical Algorithm 2 composition
// is done once per (program, configuration) and kept as an estimate table
// that every later annotation of that pair reads without per-block work.
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
	// CacheLimit bounds the cache to that many schedule entries and that
	// many block estimates across its estimate tables (seeded random
	// replacement beyond it, counted as evictions); zero or negative means
	// unbounded.
	CacheLimit int
	// Detail selects the PUM sub-models of every annotation the pipeline
	// makes on its own — AnnotateCtx, and SimulateCtx/RunTimed when the
	// caller passes no delay tables; nil means core.FullDetail (the
	// paper's full Algorithm 2). DelaysCtx's detail argument is the one
	// per-call override.
	Detail *core.Detail
	// Strict makes annotation fail when the PUM does not map an op class
	// the program uses, instead of degrading to fallback latencies.
	Strict bool
	// FallbackCycles is the stage-0 latency charged to unmapped op classes
	// in graceful-degradation mode; zero or negative selects
	// core.DefaultFallbackCycles.
	FallbackCycles int
	// Timeout, when positive, arms a wall-clock watchdog on every entry
	// point (CompileCtx, AnnotateCtx, DelaysCtx, SimulateCtx and their
	// context-free forms): the call is abandoned with diag.ErrDeadline once
	// that much host time has elapsed.
	Timeout time.Duration
	// Engine is the pipeline-wide default execution engine for Simulate
	// runs: interp.EngineAuto (the zero value) uses the registered
	// generated engine, else the flat compiled engine. A per-run
	// tlm.Options.Engine other than auto takes precedence.
	Engine interp.EngineKind
	// Verify runs the static IR verifier after the front end (CompileCtx),
	// the PUM lint before annotation (AnnotateCtx), and the full design
	// verification before a design is annotated or simulated (DelaysCtx,
	// SimulateCtx). Findings land in Diagnostics(); Error-severity findings
	// fail the stage.
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

// Detail returns the detail level of the annotations the pipeline makes on
// its own (Options.Detail).
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

// recordDegradation folds one annotation's degradation tallies, which its
// table carries, into the pipeline counters.
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

// AnnotateCtx estimates every basic block of the program against the PE
// model at the pipeline's detail level, through the worker pool and the
// schedule/estimate cache, with panic containment: cancellation or
// deadline expiry aborts the worker fan-out with
// diag.ErrCanceled/ErrDeadline, Options.Verify lints the model first,
// strict mode (Options.Strict) rejects PUMs that do not map every op class
// the program uses, and a panic inside the estimator is returned as a
// stage-tagged *diag.PanicError.
func (pl *Pipeline) AnnotateCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM) (*annotate.Annotated, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	// Lint the model against the op classes the program uses before
	// spending any scheduling work on it.
	if pl.opts.Verify {
		if err := pl.runVerify(verify.Model(p, prog)); err != nil {
			return nil, err
		}
	}
	return pl.annotate(ctx, prog, p, pl.detail)
}

// annotate is the shared annotation stage. It runs no PUM lint: the
// design-level paths verify with verify.Design, which lints each PE model
// scoped to its own entry functions (a whole-program lint would hold a
// hardware PE to op classes it never executes).
func (pl *Pipeline) annotate(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail core.Detail) (*annotate.Annotated, error) {
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

// DelaysCtx annotates a design's program once per PE at the given detail
// level through the cache and returns the per-PE delay tables the timed
// TLM consumes (keyed by PE name, each in dense program block order and
// shared read-only with the cache), plus the wall-clock annotation time
// (the paper's "Anno." column). Cancellation or a strict-mode mapping
// failure aborts the per-PE annotation loop with the typed error. With
// Options.Verify the whole design is verified first (program, PE models
// scoped to their entries, channel topology).
func (pl *Pipeline) DelaysCtx(ctx context.Context, d *platform.Design, detail core.Detail) (map[string][]float64, time.Duration, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	if pl.opts.Verify {
		if err := pl.runVerify(verify.Design(d)); err != nil {
			return nil, 0, err
		}
	}
	return pl.delays(ctx, d, detail)
}

// delays computes the per-PE delay tables of an already verified design.
func (pl *Pipeline) delays(ctx context.Context, d *platform.Design, detail core.Detail) (map[string][]float64, time.Duration, error) {
	start := time.Now()
	out := make(map[string][]float64, len(d.PEs))
	for _, pe := range d.PEs {
		a, err := pl.annotate(ctx, d.Program, pe.PUM, detail)
		if err != nil {
			return nil, time.Since(start), err
		}
		out[pe.Name] = a.Delays()
	}
	return out, time.Since(start), nil
}

// Simulate is SimulateCtx without a context. For timed runs the
// annotation phase goes through the pipeline's cache and worker pool, so
// a sweep that simulates several configurations of one program reuses
// every schedule after the first.
func (pl *Pipeline) Simulate(d *platform.Design, opts tlm.Options) (*tlm.Result, error) {
	return pl.SimulateCtx(context.Background(), d, opts)
}

// SimulateCtx runs the TLM of a design under a context with panic
// containment and the pipeline's watchdog. A timed run without delay
// tables (opts.Delays nil) is annotated first at the pipeline's detail
// level, and the result's AnnoTime reports that annotation. Cancellation
// or deadline expiry interrupts both the annotation fan-out and the
// simulation event loop. On cancellation mid-simulation the partial
// tlm.Result is returned together with diag.ErrCanceled/ErrDeadline; a
// panic anywhere in the stage surfaces as a *diag.PanicError instead of
// killing the process.
func (pl *Pipeline) SimulateCtx(ctx context.Context, d *platform.Design, opts tlm.Options) (*tlm.Result, error) {
	ctx, cancel := pl.withTimeout(ctx)
	defer cancel()
	if pl.opts.Verify {
		if err := pl.runVerify(verify.Design(d)); err != nil {
			return nil, err
		}
	}
	var annoTime time.Duration
	if opts.Timed && opts.Delays == nil {
		dm, dur, err := pl.delays(ctx, d, pl.detail)
		if err != nil {
			return nil, err
		}
		opts.Delays, annoTime = dm, dur
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
	if res != nil {
		res.AnnoTime = annoTime
	}
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
	return pl.Simulate(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
}
