package jobspec

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ese/internal/annotate"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/codegen"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/engine"
	"ese/internal/interp"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/profile"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
	"ese/internal/trace"
)

// Runner executes Specs through engine pipelines built around shared
// process-wide state: one content-addressed schedule/estimate cache, one
// metric registry and one workload memo. A zero Runner is valid (each job
// then runs with a private cache and registry); the esed daemon populates
// both so every request warms the same cache.
type Runner struct {
	// Cache, when non-nil, is injected into every job's pipeline.
	Cache *core.Cache
	// Metrics, when non-nil, is injected into every job's pipeline.
	Metrics *metrics.Registry
	// DefaultTimeout bounds jobs whose spec sets none (0 = unbounded).
	DefaultTimeout time.Duration

	// memo holds the two TLM base processor models, so one calibration
	// serves every job, and each workload's program and timed-TLM
	// recording, which the DSE points and repeated requests of the
	// workload share.
	memo calib.Memo
}

// BaseModel returns the memoized TLM base processor model for the spec's
// calibration setting, computing it on first use under no deadline.
func (r *Runner) BaseModel(s *Spec) (*pum.PUM, error) {
	return r.memo.Model(context.Background(), s.Calibrate)
}

// design maps the spec's platform from the memoized base model (the
// MicroBlaze-like soft core, calibrated on the MP3 training program when
// the spec asks for it) and the workload's memo entry, and verifies it
// through pl. hit reports that the entry's program was not compiled for
// this job.
func (r *Runner) design(ctx context.Context, s *Spec, pl *engine.Pipeline) (d *platform.Design, e *calib.Entry, hit bool, err error) {
	base, err := r.memo.Model(ctx, s.Calibrate)
	if err != nil {
		return nil, nil, false, err
	}
	if e, hit, err = r.memo.Entry(ctx, s.workload()); err != nil {
		return nil, nil, false, err
	}
	if hit {
		r.Metrics.Counter("jobspec.program.hits").Inc()
	} else {
		r.Metrics.Counter("jobspec.program.misses").Inc()
	}
	if d, err = s.mapDesign(base, e); err != nil {
		return nil, nil, false, err
	}
	return d, e, hit, pl.VerifyDesign(d)
}

// RunOpts carries per-invocation hooks that are not part of the job's
// content-addressed identity.
type RunOpts struct {
	// StageHook observes pipeline stage completions (progress streaming).
	StageHook func(stage diag.Stage, d time.Duration)
}

// BlockEstimate is the JSON form of one basic block's estimate.
type BlockEstimate struct {
	Func     string  `json:"func"`
	Block    int     `json:"block"`
	Ops      int     `json:"ops"`
	Operands int     `json:"operands"`
	Sched    int     `json:"sched"`
	Branch   float64 `json:"branch"`
	IDelay   float64 `json:"idelay"`
	DDelay   float64 `json:"ddelay"`
	Total    float64 `json:"total"`
	Unmapped int     `json:"unmapped,omitempty"`
}

// TLMSummary is the JSON form of one TLM (or board) simulation outcome.
type TLMSummary struct {
	Design       string             `json:"design"`
	Engine       string             `json:"engine"`
	EndPs        uint64             `json:"end_ps,omitempty"`
	BusCycles    uint64             `json:"bus_cycles,omitempty"`
	CyclesByPE   map[string]uint64  `json:"cycles_by_pe"`
	SwitchesByPE map[string]uint64  `json:"switches_by_pe,omitempty"`
	OutByPE      map[string][]int32 `json:"out_by_pe,omitempty"`
	BusWords     uint64             `json:"bus_words,omitempty"`
	Steps        uint64             `json:"steps"`
	AnnoNs       int64              `json:"anno_ns,omitempty"`
	WallNs       int64              `json:"wall_ns"`
}

// CalibEntry is the JSON form of one calibration provenance record: which
// training program produced the statistics of one cache configuration.
type CalibEntry struct {
	ISize      int     `json:"isize"`
	DSize      int     `json:"dsize"`
	Train      string  `json:"train"`
	Steps      uint64  `json:"steps"`
	BranchMiss float64 `json:"branch_miss"`
}

// CalibSummary is the JSON form of one calibration outcome: the calibrated
// PUM description plus its provenance.
type CalibSummary struct {
	Train      string          `json:"train"`
	BranchMiss float64         `json:"branch_miss"`
	Configs    int             `json:"configs"`
	Provenance []CalibEntry    `json:"provenance"`
	Model      json.RawMessage `json:"model"`
}

// Result is the JSON response body of one executed job. On failure the
// Runner still returns a partial Result carrying the collected
// diagnostics next to the error.
type Result struct {
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	// Model names the resolved PE model of an estimation job.
	Model string `json:"model,omitempty"`
	// Summary is the human-readable annotation summary (estimation jobs).
	Summary string `json:"summary,omitempty"`
	// Blocks is the per-block estimate table (estimation jobs).
	Blocks []BlockEstimate `json:"blocks,omitempty"`
	// TLM is the simulation outcome (TLM jobs).
	TLM *TLMSummary `json:"tlm,omitempty"`
	// Calib is the calibration outcome (calibration jobs).
	Calib *CalibSummary `json:"calib,omitempty"`
	// Profile is the cycle-attribution report (when Spec.Profile is set).
	Profile json.RawMessage `json:"profile,omitempty"`
	// Diagnostics are the pipeline's structured diagnostics, rendered.
	Diagnostics []string `json:"diagnostics,omitempty"`
	// UnmappedOps / DegradedBlocks are the job's graceful-degradation
	// tallies.
	UnmappedOps    uint64 `json:"unmapped_ops,omitempty"`
	DegradedBlocks uint64 `json:"degraded_blocks,omitempty"`
	// ElapsedNs is the job's host wall-clock time inside the Runner.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// Run executes one validated spec. See RunWith.
func (r *Runner) Run(ctx context.Context, s *Spec) (*Result, error) {
	return r.RunWith(ctx, s, RunOpts{})
}

// Pipeline builds a job's pipeline: the spec's options over the Runner's
// shared cache and registry, reporting its stages to ro.StageHook.
func (r *Runner) Pipeline(s *Spec, ro RunOpts) (*engine.Pipeline, error) {
	opts, err := s.Options()
	if err != nil {
		return nil, err
	}
	opts.Cache, opts.Metrics, opts.StageHook = r.Cache, r.Metrics, ro.StageHook
	return engine.New(opts), nil
}

// RunWith executes one validated spec through a fresh pipeline (Pipeline).
// The context, further bounded by one deadline from the spec's Timeout
// (else the Runner's DefaultTimeout), bounds the whole job — calibration,
// every pipeline stage and the profiled execution alike: cancellation or
// deadline expiry surfaces as diag.ErrCanceled / diag.ErrDeadline with a
// stage-tagged diagnostic in the (partial) Result.
func (r *Runner) RunWith(ctx context.Context, s *Spec, ro RunOpts) (res *Result, err error) {
	start := time.Now()
	pl, err := r.Pipeline(s, ro)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.WithTimeout(ctx, r.DefaultTimeout)
	defer cancel()

	res = &Result{Kind: s.Kind, Fingerprint: s.Fingerprint()}
	defer func() {
		for _, d := range pl.Diagnostics().All() {
			res.Diagnostics = append(res.Diagnostics, d.String())
		}
		st := pl.Stats()
		res.UnmappedOps, res.DegradedBlocks = st.UnmappedOps, st.DegradedBlocks
		res.ElapsedNs = time.Since(start).Nanoseconds()
	}()

	switch s.Kind {
	case KindEstimate:
		err = r.runEstimate(ctx, s, pl, res)
	case KindTLM:
		err = r.runTLM(ctx, s, pl, res)
	case KindCalibrate:
		err = r.runCalibrate(ctx, s, res)
	default:
		err = fmt.Errorf("jobspec: unknown job kind %q", s.Kind)
	}
	return res, err
}

// runEstimate is the eseest flow: compile, annotate (Spec.Annotate),
// summarize.
func (r *Runner) runEstimate(ctx context.Context, s *Spec, pl *engine.Pipeline, res *Result) error {
	name := s.Source.Name
	if name == "" {
		name = "job.c"
	}
	prog, err := pl.CompileCtx(ctx, name, s.Source.Code)
	if err != nil {
		return err
	}
	model, a, err := s.Annotate(ctx, pl, prog)
	if model != nil {
		res.Model = model.Name
	}
	if err != nil {
		return err
	}
	res.Summary = a.Summary()
	est := a.Table.Estimates()
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			e := est[0]
			est = est[1:]
			res.Blocks = append(res.Blocks, BlockEstimate{
				Func: fn.Name, Block: b.ID,
				Ops: e.Ops, Operands: e.Operands, Sched: e.Sched,
				Branch: e.BranchPen, IDelay: e.IDelay, DDelay: e.DDelay,
				Total: e.Total, Unmapped: e.Unmapped,
			})
		}
	}
	if s.Profile {
		rep, err := ProfileEstimate(ctx, s, a)
		if err != nil {
			return err
		}
		res.Profile, err = rep.JSON()
		return err
	}
	return nil
}

// ProfileEstimate is the profiled estimation flow (esed's profiled
// estimate jobs and `eseest -profile`): it executes the annotated
// program's entry (s.Entry, default main) on the IR engine s.Exec selects,
// bounded by s.Steps and ctx, counting block executions, and joins the
// counts with the annotation into the ranked cycle-attribution report.
// The report's one PE is named after the model; its dynamic total is the
// program's estimated cycle count on that model. The engine builds and
// runs tenant code under diag.Guard, so a Go panic in it fails the job
// with a *diag.PanicError instead of killing the process.
func ProfileEstimate(ctx context.Context, s *Spec, a *annotate.Annotated) (*profile.Report, error) {
	kind, err := s.ExecKind()
	if err != nil {
		return nil, err
	}
	var counts map[*cdfg.Block]uint64
	err = diag.Guard(diag.StageSimulate, func() error {
		m, err := interp.NewEngine(a.Prog, kind)
		if err != nil {
			return err
		}
		m.EnableProfile()
		m.SetLimit(s.Steps)
		m.SetContext(ctx)
		entry := s.Entry
		if entry == "" {
			entry = "main"
		}
		if err := m.Run(entry); err != nil {
			return fmt.Errorf("profile run: %w", err)
		}
		counts = m.BlockCountsMap()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profile.Build("", a.Prog,
		map[string]map[*cdfg.Block]uint64{a.PUM.Name: counts},
		map[string][]core.Estimate{a.PUM.Name: a.Table.Estimates()})
}

// TLMRun is one TLM job's raw outcome: its mapped design and what the
// spec's engine produced.
type TLMRun struct {
	Design *platform.Design
	// TLM is the functional or timed run's result.
	TLM *tlm.Result
	// Board is the board engine's result.
	Board *rtl.BoardResult
	// Profile is the cycle-attribution report of a profiled run.
	Profile *profile.Report
}

// Design is ExecTLM's first half: the spec's design, mapped from the
// Runner's memo (a zero Runner is valid) and verified once through pl
// under s.Verify.
func (r *Runner) Design(ctx context.Context, s *Spec, pl *engine.Pipeline) (*platform.Design, error) {
	d, _, _, err := r.design(ctx, s, pl)
	return d, err
}

// ExecTLM is the one TLM step of every front end — esed and esedse through
// RunWith, esetlm directly: it maps and verifies the spec's design (see
// Design), then runs the spec's engine through pl, the one place that
// switches on it. The board engine is rtl.RunBoards; the functional and
// timed engines are pl.SimulateCtx, recording its activity into ev when ev
// is non-nil. A timed job that records no activity, on a workload it did
// not compile and with a spec that lets it replay (Spec.replays), takes
// the workload's recording from the memo: the workload's first repeat
// records it, and every later job, one that waited for the recording
// included, replays it. Under s.Profile the
// run's block counts are joined with each PE's annotation into the
// cycle-attribution report.
func (r *Runner) ExecTLM(ctx context.Context, s *Spec, pl *engine.Pipeline, ev *trace.Events) (*TLMRun, error) {
	d, e, hit, err := r.design(ctx, s, pl)
	if err != nil {
		return nil, err
	}
	run := &TLMRun{Design: d}
	if s.Engine == EngineBoard {
		brs, err := rtl.RunBoards(ctx, []*platform.Design{d}, 0)
		if err != nil {
			return nil, err
		}
		run.Board = brs[0]
		return run, nil
	}
	opts := tlm.Options{Profile: s.Profile}
	if s.Engine == EngineTimed {
		opts.Timed, opts.WaitMode, opts.Events = true, tlm.WaitAtTransactions, ev
	}
	if hit && s.replays() && ev == nil {
		rec, recorded, err := e.Recording(ctx, func(rec *tlm.Recording) (err error) {
			opts.Recording = rec
			run.TLM, err = pl.SimulateCtx(ctx, d, opts)
			return err
		})
		switch {
		case err != nil:
			return nil, err
		case recorded && rec != nil:
			r.Metrics.Counter("jobspec.replay.records").Inc()
		case !recorded:
			opts.Recording = rec
		}
	}
	if run.TLM == nil {
		if run.TLM, err = pl.SimulateCtx(ctx, d, opts); err != nil {
			return nil, err
		}
		// A memoized recording always replays: it was recorded under these
		// same options, and the pipeline's block delays are integers.
		if opts.Recording != nil {
			r.Metrics.Counter("jobspec.replay.hits").Inc()
		}
	}
	if s.Profile {
		run.Profile, err = profileTLM(ctx, pl, d, run.TLM)
	}
	return run, err
}

// Standalone returns the spec's design (see Design) and its standalone
// timed-TLM package (codegen.StandaloneFiles, go.mod naming module), with
// the per-block delays pl annotates for a timed run of the design: the
// files esegen -o writes.
func (r *Runner) Standalone(ctx context.Context, s *Spec, pl *engine.Pipeline, module string) (*platform.Design, map[string][]byte, error) {
	d, err := r.Design(ctx, s, pl)
	if err != nil {
		return nil, nil, err
	}
	delays, _, err := pl.DelaysCtx(ctx, d)
	if err != nil {
		return nil, nil, err
	}
	files, err := codegen.StandaloneFiles(d, delays, module)
	return d, files, err
}

// runTLM is the TLM flow of esed and esedse: ExecTLM, summarized.
func (r *Runner) runTLM(ctx context.Context, s *Spec, pl *engine.Pipeline, res *Result) error {
	run, err := r.ExecTLM(ctx, s, pl, nil)
	if err != nil {
		return err
	}
	res.TLM = run.summary(s.Engine)
	if run.Profile != nil {
		res.Profile, err = run.Profile.JSON()
	}
	return err
}

// summary is the JSON form of the run's outcome on the named engine.
func (run *TLMRun) summary(engineName string) *TLMSummary {
	d := run.Design
	if br := run.Board; br != nil {
		sum := &TLMSummary{
			Design:     d.Name,
			Engine:     engineName,
			EndPs:      uint64(br.EndPs),
			BusCycles:  br.EndCycles(d.Bus.ClockHz),
			CyclesByPE: make(map[string]uint64, len(br.PEs)),
			Steps:      br.Steps,
			WallNs:     br.Wall.Nanoseconds(),
		}
		for name, pe := range br.PEs {
			sum.CyclesByPE[name] = pe.Cycles
		}
		return sum
	}
	tr := run.TLM
	sum := &TLMSummary{
		Design:       tr.Design,
		Engine:       engineName,
		EndPs:        uint64(tr.EndPs),
		CyclesByPE:   tr.CyclesByPE,
		SwitchesByPE: tr.SwitchesByPE,
		OutByPE:      tr.OutByPE,
		BusWords:     tr.BusWords,
		Steps:        tr.Steps,
		AnnoNs:       tr.AnnoTime.Nanoseconds(),
		WallNs:       tr.Wall.Nanoseconds(),
	}
	if tr.EndPs > 0 {
		sum.BusCycles = tr.EndCycles(d.Bus.ClockHz)
	}
	return sum
}

// runCalibrate is the internal/calib flow: profile the training set on
// the cycle-accurate processor model under the job's deadline and return
// the calibrated PUM with its provenance. Steps bounds each profiling run
// (0 = none).
func (r *Runner) runCalibrate(ctx context.Context, s *Spec, res *Result) error {
	train := s.Train
	if train == "" {
		train = DefaultTrain
	}
	ts, err := calib.Trainings(train)
	if err != nil {
		return err
	}
	model, _, err := calib.CalibrateCtx(ctx, pum.MicroBlaze(), ts, pum.StandardCacheConfigs, s.Steps)
	if err != nil {
		return err
	}
	data, err := model.ToJSON()
	if err != nil {
		return err
	}
	sum := &CalibSummary{
		Train:      train,
		BranchMiss: model.Branch.MissRate,
		Configs:    len(model.Configs()),
		Model:      data,
	}
	for _, cs := range model.Calib {
		sum.Provenance = append(sum.Provenance, CalibEntry{
			ISize: cs.Cfg.ISize, DSize: cs.Cfg.DSize,
			Train: cs.Train, Steps: cs.Steps, BranchMiss: cs.BranchMiss,
		})
	}
	res.Calib = sum
	return nil
}

// profileTLM joins a profiled run's per-process block counts with each
// PE's annotation into the ranked cycle-attribution report. The
// annotations go through pl's cache at pl's detail, so they are the very
// estimates pl times a run with — the report totals reconcile bit for bit
// with a timed run's per-PE cycle counts, and a functional run, whose
// block counts are the same, reports the same totals. They run no lint:
// the design was verified once, before the run.
func profileTLM(ctx context.Context, pl *engine.Pipeline, d *platform.Design, tr *tlm.Result) (*profile.Report, error) {
	as, err := pl.AnnotateDesignCtx(ctx, d)
	if err != nil {
		return nil, err
	}
	est := make(map[string][]core.Estimate, len(as))
	for name, a := range as {
		est[name] = a.Table.Estimates()
	}
	return profile.Build(d.Name, d.Program, tr.BlockCountsByPE, est)
}
