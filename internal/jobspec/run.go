package jobspec

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"ese/internal/annotate"
	"ese/internal/calib"
	"ese/internal/cdfg"
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
)

// Runner executes Specs through engine pipelines built around shared
// process-wide state: one content-addressed schedule/estimate cache and
// one metric registry. A zero Runner is valid (each job then runs with a
// private cache and registry); the esed daemon populates both so every
// request warms the same cache.
type Runner struct {
	// Cache, when non-nil, is injected into every job's pipeline.
	Cache *core.Cache
	// Metrics, when non-nil, is injected into every job's pipeline.
	Metrics *metrics.Registry
	// DefaultTimeout bounds jobs whose spec sets none (0 = unbounded).
	DefaultTimeout time.Duration

	// base memoizes the two TLM base processor models (calibrated and
	// nominal) across jobs. Calibration depends only on the fixed training
	// workload, so one board-simulation run serves every TLM job and every
	// DSE sweep point the Runner ever executes.
	baseMu sync.Mutex
	base   map[bool]*pum.PUM

	// progs memoizes lowered TLM programs by normalized workload, so the
	// DSE points and repeated requests of one workload share one program
	// (and its memoized block fingerprints) instead of regenerating,
	// parsing, checking and lowering it per job. Shared programs are
	// read-only: every TLM path (annotation, the engines, the board and
	// verification) only reads IR. An entry also holds the workload's
	// timed-TLM recording once a repeated job has made one.
	progMu sync.Mutex
	progs  map[workload]*memoEntry
}

// memoEntry is one program memo entry: a workload's lowered program and,
// once published, the tlm.Recording of its timed TLM. The recording keys
// blocks of prog, so it lives and dies with the entry.
type memoEntry struct {
	prog *cdfg.Program
	rec  *tlm.Recording
}

// programMemoLimit bounds the program memo; beyond it the map is dropped
// wholesale, like interp's compile cache.
const programMemoLimit = 64

// BaseModel returns the memoized TLM base processor model for the spec's
// calibration setting, computing it on first use.
func (r *Runner) BaseModel(s *Spec) (*pum.PUM, error) {
	r.baseMu.Lock()
	defer r.baseMu.Unlock()
	if m := r.base[s.Calibrate]; m != nil {
		return m, nil
	}
	m, err := s.BaseModel()
	if err != nil {
		return nil, err
	}
	if r.base == nil {
		r.base = make(map[bool]*pum.PUM, 2)
	}
	r.base[s.Calibrate] = m
	return m, nil
}

// program returns a snapshot of the spec's workload entry in the program
// memo, compiling the program on a miss; hit reports a memo hit.
// Concurrent misses on one workload each compile, but the first insert
// wins, so every later job sees one pointer.
func (r *Runner) program(s *Spec) (e memoEntry, hit bool, err error) {
	w := s.workload()
	r.progMu.Lock()
	if m := r.progs[w]; m != nil {
		e = *m
	}
	r.progMu.Unlock()
	if e.prog != nil {
		r.Metrics.Counter("jobspec.program.hits").Inc()
		return e, true, nil
	}
	r.Metrics.Counter("jobspec.program.misses").Inc()
	prog, err := w.compile()
	if err != nil {
		return e, false, err
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if first := r.progs[w]; first != nil {
		return *first, false, nil
	}
	if r.progs == nil || len(r.progs) >= programMemoLimit {
		r.progs = make(map[workload]*memoEntry)
	}
	r.progs[w] = &memoEntry{prog: prog}
	return memoEntry{prog: prog}, false, nil
}

// design builds the spec's mapped platform from the memoized base model
// and program. rec is the recording a timed run of the design carries
// (see Spec.replays): the workload's published recording, an empty one to
// fill when the job is the workload's first repeat (a memo hit with
// nothing published yet), else nil.
func (r *Runner) design(s *Spec) (d *platform.Design, rec *tlm.Recording, err error) {
	base, err := r.BaseModel(s)
	if err != nil {
		return nil, nil, err
	}
	e, hit, err := r.program(s)
	if err != nil {
		return nil, nil, err
	}
	d, err = s.BuildDesignFrom(base, e.prog)
	if err != nil || !s.replays() {
		return d, nil, err
	}
	rec = e.rec
	if rec == nil && hit {
		rec = &tlm.Recording{}
	}
	return d, rec, nil
}

// publish stores a recording a job just filled in the memo entry of the
// spec's workload, provided the memo still holds the program it was
// recorded from; racing recorders are allowed and the first publish wins.
func (r *Runner) publish(s *Spec, prog *cdfg.Program, rec *tlm.Recording) {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	e := r.progs[s.workload()]
	if e == nil || e.prog != prog || e.rec != nil {
		return
	}
	e.rec = rec
	r.Metrics.Counter("jobspec.replay.records").Inc()
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

// RunWith executes one validated spec through a fresh pipeline bound to
// the Runner's shared cache and registry. The context, further bounded by
// one deadline from the spec's Timeout (else the Runner's
// DefaultTimeout), bounds the whole job — every pipeline stage and the
// profiled execution alike: cancellation or deadline expiry surfaces as
// diag.ErrCanceled / diag.ErrDeadline with a stage-tagged diagnostic in
// the (partial) Result.
func (r *Runner) RunWith(ctx context.Context, s *Spec, ro RunOpts) (res *Result, err error) {
	start := time.Now()
	opts, err := s.Options()
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = r.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The job deadline above bounds every stage; no per-stage watchdog.
	opts.Timeout = 0
	opts.Cache = r.Cache
	opts.Metrics = r.Metrics
	opts.StageHook = ro.StageHook
	pl := engine.New(opts)

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

// runEstimate is the eseest flow: compile, annotate, summarize.
func (r *Runner) runEstimate(ctx context.Context, s *Spec, pl *engine.Pipeline, res *Result) error {
	name := s.Source.Name
	if name == "" {
		name = "job.c"
	}
	prog, err := pl.CompileCtx(ctx, name, s.Source.Code)
	if err != nil {
		return err
	}
	model, err := s.ResolveModel()
	if err != nil {
		return err
	}
	if model, err = s.ApplyCache(model); err != nil {
		return err
	}
	res.Model = model.Name
	a, err := pl.AnnotateCtx(ctx, prog, model)
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
// program's estimated cycle count on that model.
func ProfileEstimate(ctx context.Context, s *Spec, a *annotate.Annotated) (*profile.Report, error) {
	kind, err := s.ExecKind()
	if err != nil {
		return nil, err
	}
	m, err := interp.NewEngine(a.Prog, kind)
	if err != nil {
		return nil, err
	}
	m.EnableProfile()
	m.SetLimit(s.Steps)
	m.SetContext(ctx)
	entry := s.Entry
	if entry == "" {
		entry = "main"
	}
	if err := m.Run(entry); err != nil {
		return nil, fmt.Errorf("profile run: %w", err)
	}
	return profile.Build("", a.Prog,
		map[string]map[*cdfg.Block]uint64{a.PUM.Name: m.BlockCountsMap()},
		map[string][]core.Estimate{a.PUM.Name: a.Table.Estimates()})
}

// runTLM is the esetlm flow: build the design, simulate, summarize.
func (r *Runner) runTLM(ctx context.Context, s *Spec, pl *engine.Pipeline, res *Result) error {
	d, rec, err := r.design(s)
	if err != nil {
		return err
	}
	if s.Engine == EngineBoard {
		br, err := rtl.RunBoard(d, 0)
		if err != nil {
			return err
		}
		sum := &TLMSummary{
			Design:     d.Name,
			Engine:     EngineBoard,
			EndPs:      uint64(br.EndPs),
			BusCycles:  br.EndCycles(d.Bus.ClockHz),
			CyclesByPE: make(map[string]uint64, len(br.PEs)),
			Steps:      br.Steps,
			WallNs:     br.Wall.Nanoseconds(),
		}
		for name, pe := range br.PEs {
			sum.CyclesByPE[name] = pe.Cycles
		}
		res.TLM = sum
		return nil
	}
	opts := tlm.Options{Profile: s.Profile, Recording: rec}
	if s.Engine == EngineTimed {
		opts.Timed = true
		opts.WaitMode = tlm.WaitAtTransactions
	}
	// A published recording always replays: it was recorded under these
	// same options, and the pipeline's block delays are integers.
	replayed := rec.Filled()
	tr, err := pl.SimulateCtx(ctx, d, opts)
	if err != nil {
		return err
	}
	switch {
	case replayed:
		r.Metrics.Counter("jobspec.replay.hits").Inc()
	case rec.Filled():
		r.publish(s, d.Program, rec)
	}
	res.TLM = &TLMSummary{
		Design:       tr.Design,
		Engine:       s.Engine,
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
		res.TLM.BusCycles = tr.EndCycles(d.Bus.ClockHz)
	}
	if s.Profile {
		rep, err := ProfileTLM(ctx, pl, d, tr)
		if err != nil {
			return err
		}
		res.Profile, err = rep.JSON()
		return err
	}
	return nil
}

// runCalibrate is the internal/calib flow: profile the training set on
// the cycle-accurate processor model and return the calibrated PUM with
// its provenance. Steps bounds each profiling run (0 = none).
func (r *Runner) runCalibrate(ctx context.Context, s *Spec, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	train := s.Train
	if train == "" {
		train = DefaultTrain
	}
	ts, err := calib.Trainings(train)
	if err != nil {
		return err
	}
	model, _, err := calib.Calibrate(pum.MicroBlaze(), ts, pum.StandardCacheConfigs, s.Steps)
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

// ProfileTLM is the profiled TLM flow (esed's profiled TLM jobs and
// `esetlm -profile`): it joins a profiled timed run's per-process block
// counts with each PE's annotation into the ranked cycle-attribution
// report. The annotations go through pl's cache at pl's detail, so they
// are the very estimates pl timed the run with — the report totals
// reconcile bit for bit with the simulated per-PE cycle counts.
func ProfileTLM(ctx context.Context, pl *engine.Pipeline, d *platform.Design, tr *tlm.Result) (*profile.Report, error) {
	est := make(map[string][]core.Estimate, len(d.PEs))
	for _, pe := range d.PEs {
		a, err := pl.AnnotateCtx(ctx, d.Program, pe.PUM)
		if err != nil {
			return nil, err
		}
		est[pe.Name] = a.Table.Estimates()
	}
	return profile.Build(d.Name, d.Program, tr.BlockCountsByPE, est)
}
