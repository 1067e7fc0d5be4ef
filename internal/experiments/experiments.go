// Package experiments reproduces the evaluation of the paper: Table 1
// (scalability: annotation and simulation times across the four MP3
// designs), Table 2 (SW-only estimation accuracy of ISS and timed TLM
// against the board across five cache configurations), Table 3 (accuracy
// of the hardware-accelerated designs against the board), plus three
// ablations the paper motivates (statistical-model sensitivity, sc_wait
// granularity, and PUM detail level).
//
// The "board" is the cycle-accurate virtual board of internal/rtl; the
// statistical PUM is calibrated on a training workload distinct from the
// evaluation workload, so reported errors are genuine estimation errors.
// Calibration, board references and every board-vs-estimate point — of
// Tables 2–3 and of ablations A1, A3, A5 and A6 — come from internal/calib,
// the same scorer that produces the accuracy scoreboard
// (BENCH_accuracy.json).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/engine"
	"ese/internal/iss"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// Setup bundles what every experiment needs: the calibrated processor
// model, the evaluation workload, its estimation pipelines and one
// workload memo. A pipeline's detail level is fixed when it is
// built, so the Setup builds one per level an experiment asks for, all
// over one schedule/estimate cache and one metric registry: the
// cache-configuration sweeps of Tables 2–3 and the ablations compute each
// Algorithm 1 schedule once and reuse it across configurations and detail
// levels — Pipe.Stats() exposes the shared cache's hit counters. Every
// program, board reference and recording of the evaluation workload goes
// through Memo, so each is made once per Setup.
type Setup struct {
	Eval apps.MP3Config
	MB   *pum.PUM         // calibrated MicroBlaze-like model
	Pipe *engine.Pipeline // the pipeline at the options' detail level
	Memo *calib.Memo      // the evaluation workload's memo

	opts  engine.Options // Pipe's options, with the shared cache and registry
	pipes []leveled      // every pipeline, Pipe first, in the order built
}

// leveled is one of a Setup's pipelines and the detail level it annotates
// at.
type leveled struct {
	detail core.Detail
	pipe   *engine.Pipeline
}

// NewSetup calibrates the MicroBlaze model on the MP3 training workload
// (apps.TrainMP3) and evaluates on frames frames of the default seed; opts
// configures every pipeline of the setup (strictness, workers), and its
// Detail that of Pipe. The calibration runs under ctx.
func NewSetup(ctx context.Context, frames int, opts engine.Options) (*Setup, error) {
	memo := &calib.Memo{}
	mb, err := memo.Model(ctx, true)
	if err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		opts.Cache = core.NewCache()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	detail := core.FullDetail
	if opts.Detail != nil {
		detail = *opts.Detail
	}
	s := &Setup{
		Eval: apps.MP3Config{Frames: frames, Seed: apps.DefaultMP3.Seed},
		MB:   mb,
		Memo: memo,
		opts: opts,
	}
	s.Pipe = s.pipeline(detail)
	return s, nil
}

// pipeline returns the setup's pipeline at detail, built on first use.
func (s *Setup) pipeline(detail core.Detail) *engine.Pipeline {
	for _, l := range s.pipes {
		if l.detail == detail {
			return l.pipe
		}
	}
	opts := s.opts
	opts.Detail = &detail
	pl := engine.New(opts)
	s.pipes = append(s.pipes, leveled{detail, pl})
	return pl
}

// Diagnostics gathers the diagnostics of every pipeline of the setup.
func (s *Setup) Diagnostics() *diag.List {
	var all diag.List
	for _, l := range s.pipes {
		for _, d := range l.pipe.Diagnostics().All() {
			all.Add(d)
		}
	}
	return &all
}

// score scores s.MB's estimate of one MP3 design against the board across
// the standard cache sweep.
func (s *Setup) score(ctx context.Context, design string) (calib.Row, error) {
	return calib.ScoreRow(ctx, s.Pipe, s.Memo, s.MB, s.workload(design), pum.StandardCacheConfigs)
}

// workload is the evaluation workload of one MP3 design.
func (s *Setup) workload(design string) calib.Workload {
	return calib.Workload{App: "mp3", Design: design, Size: s.Eval.Frames, Seed: s.Eval.Seed}
}

// design maps the memoized program of one MP3 design's evaluation
// workload under s.MB at cc; e is the workload's memo entry.
func (s *Setup) design(ctx context.Context, design string, cc pum.CacheCfg) (d *platform.Design, e *calib.Entry, err error) {
	if e, _, err = s.Memo.Entry(ctx, s.workload(design)); err != nil {
		return nil, nil, err
	}
	d, err = e.Design(s.MB, cc)
	return d, e, err
}

// timed is the timed TLM configuration the paper evaluates: waits at
// transaction boundaries.
var timed = tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions}

func pct(est, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (est - ref) / ref
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one design's scalability measurements.
type Table1Row struct {
	Design   string
	Anno     time.Duration // annotation time for all PEs
	TLMFunc  time.Duration // functional TLM simulation time
	TLMTimed time.Duration // timed TLM simulation time
	PCAM     time.Duration // cycle-accurate board simulation time
	ISS      time.Duration // ISS simulation time (SW design only)
	HasISS   bool
}

// Table1 is the scalability table.
type Table1 struct {
	Rows []Table1Row
}

// RunTable1 measures annotation and simulation times for every design.
func RunTable1(ctx context.Context, s *Setup) (*Table1, error) {
	t := &Table1{}
	cacheCfg := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	for _, design := range apps.MP3DesignNames {
		d, _, err := s.design(ctx, design, cacheCfg)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Design: design}

		fun, err := s.Pipe.SimulateCtx(ctx, d, tlm.Options{})
		if err != nil {
			return nil, err
		}
		row.TLMFunc = fun.Wall

		tr, err := s.Pipe.SimulateCtx(ctx, d, timed)
		if err != nil {
			return nil, err
		}
		row.TLMTimed = tr.Wall
		row.Anno = tr.AnnoTime

		boards, err := rtl.RunBoards(ctx, []*platform.Design{d}, 0)
		if err != nil {
			return nil, err
		}
		row.PCAM = boards[0].Wall

		if design == "SW" {
			isa, err := iss.Generate(d.Program)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := rtl.ISSCycles(ctx, isa, "main", []pum.CacheCfg{cacheCfg}); err != nil {
				return nil, err
			}
			row.ISS = time.Since(start)
			row.HasISS = true
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// String renders the table in the paper's layout.
func (t *Table1) String() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Scalability — annotation and simulation time per design\n")
	fmt.Fprintf(&sb, "%-6s %12s %12s %12s %12s %12s\n",
		"Design", "Anno.", "TLM func", "TLM timed", "ISS", "PCAM")
	for _, r := range t.Rows {
		issStr := "-"
		if r.HasISS {
			issStr = r.ISS.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&sb, "%-6s %12s %12s %12s %12s %12s\n",
			r.Design,
			r.Anno.Round(time.Millisecond),
			r.TLMFunc.Round(time.Millisecond),
			r.TLMTimed.Round(time.Millisecond),
			issStr,
			r.PCAM.Round(time.Millisecond))
	}
	return sb.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one cache configuration's accuracy result for the SW design.
type Table2Row struct {
	Cfg    pum.CacheCfg
	Board  uint64
	ISS    uint64
	ISSErr float64 // percent
	TLM    uint64
	TLMErr float64 // percent
}

// Table2 is the SW-only accuracy table.
type Table2 struct {
	Rows      []Table2Row
	AvgISSErr float64 // average of absolute errors, like the paper
	AvgTLMErr float64
}

// RunTable2 compares board, ISS and timed-TLM cycle counts for the pure
// software design across the standard cache sweep. The board and TLM
// columns are the scorer's points for the SW design; the ISS column comes
// from one functional run timed under every configuration.
func RunTable2(ctx context.Context, s *Setup) (*Table2, error) {
	scored, err := s.score(ctx, "SW")
	if err != nil {
		return nil, err
	}
	d, _, err := s.design(ctx, "SW", pum.StandardCacheConfigs[0])
	if err != nil {
		return nil, err
	}
	isa, err := iss.Generate(d.Program)
	if err != nil {
		return nil, err
	}
	issCycles, err := rtl.ISSCycles(ctx, isa, "main", pum.StandardCacheConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table2{AvgTLMErr: scored.MAPE}
	for i, cc := range pum.StandardCacheConfigs {
		p := scored.Points[i]
		row := Table2Row{Cfg: cc, Board: p.Board, ISS: issCycles[i], TLM: p.Est, TLMErr: p.ErrPct}
		row.ISSErr = pct(float64(row.ISS), float64(row.Board))
		t.Rows = append(t.Rows, row)
		t.AvgISSErr += abs(row.ISSErr)
	}
	t.AvgISSErr /= float64(len(t.Rows))
	return t, nil
}

// String renders the table in the paper's layout.
func (t *Table2) String() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Accuracy (SW only) — cycles and error vs board\n")
	fmt.Fprintf(&sb, "%-9s %12s %12s %9s %12s %9s\n",
		"I/D cache", "Board", "ISS", "err%", "TLM", "err%")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-9s %12d %12d %8.2f%% %12d %8.2f%%\n",
			r.Cfg, r.Board, r.ISS, r.ISSErr, r.TLM, r.TLMErr)
	}
	fmt.Fprintf(&sb, "%-9s %12s %12s %8.2f%% %12s %8.2f%%   (avg |err|)\n",
		"Average", "", "", t.AvgISSErr, "", t.AvgTLMErr)
	return sb.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Cell is one (design, cache) accuracy measurement of total decode
// time in bus-clock cycles (the paper measures with an on-board timer).
type Table3Cell struct {
	Board uint64
	TLM   uint64
	Err   float64
}

// Table3Row is one cache configuration across the HW designs.
type Table3Row struct {
	Cfg   pum.CacheCfg
	Cells map[string]Table3Cell
}

// Table3 is the HW-design accuracy table.
type Table3 struct {
	Designs []string
	Rows    []Table3Row
	AvgErr  map[string]float64
}

// RunTable3 compares board and timed-TLM total times for the designs with
// custom hardware: each design's column is the scorer's row for it.
func RunTable3(ctx context.Context, s *Setup) (*Table3, error) {
	designs := []string{"SW+1", "SW+2", "SW+4"}
	t := &Table3{
		Designs: designs,
		AvgErr:  make(map[string]float64, len(designs)),
	}
	for _, cc := range pum.StandardCacheConfigs {
		t.Rows = append(t.Rows, Table3Row{Cfg: cc, Cells: make(map[string]Table3Cell, len(designs))})
	}
	for _, design := range designs {
		scored, err := s.score(ctx, design)
		if err != nil {
			return nil, err
		}
		for i, p := range scored.Points {
			t.Rows[i].Cells[design] = Table3Cell{Board: p.Board, TLM: p.Est, Err: p.ErrPct}
		}
		t.AvgErr[design] = scored.MAPE
	}
	return t, nil
}

// String renders the table in the paper's layout.
func (t *Table3) String() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Accuracy — total cycles (board vs timed TLM) for HW designs\n")
	fmt.Fprintf(&sb, "%-9s", "I/D cache")
	for _, d := range t.Designs {
		fmt.Fprintf(&sb, " %12s %12s %8s", d+" board", "TLM", "err%")
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-9s", r.Cfg)
		for _, d := range t.Designs {
			c := r.Cells[d]
			fmt.Fprintf(&sb, " %12d %12d %7.2f%%", c.Board, c.TLM, c.Err)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-9s", "Average")
	for _, d := range t.Designs {
		fmt.Fprintf(&sb, " %12s %12s %7.2f%%", "", "", t.AvgErr[d])
	}
	sb.WriteString("   (avg |err|)\n")
	return sb.String()
}

// ------------------------------------------------------------- Ablations

// SensitivityPoint is one perturbation of the statistical models.
type SensitivityPoint struct {
	Perturb float64 // multiplicative perturbation of miss rates, e.g. -0.2
	TLM     uint64
	Err     float64 // vs unperturbed board
}

// Sensitivity is the ablation the paper names as future work (§5): how the
// estimate responds to errors in the statistical memory and branch models.
type Sensitivity struct {
	Cfg    pum.CacheCfg
	Board  uint64
	Points []SensitivityPoint
}

// RunSensitivity perturbs the calibrated miss rates and misprediction
// ratio by the given relative amounts and scores each perturbed model's
// estimate of the SW design at cc against the board.
func RunSensitivity(ctx context.Context, s *Setup, cc pum.CacheCfg, perturbs []float64) (*Sensitivity, error) {
	out := &Sensitivity{Cfg: cc}
	for _, p := range perturbs {
		mb := s.MB.Clone()
		st := mb.Mem.Table[cc]
		st.IHitRate = clamp01(1 - (1-st.IHitRate)*(1+p))
		st.DHitRate = clamp01(1 - (1-st.DHitRate)*(1+p))
		mb.Mem.Table[cc] = st
		mb.Branch.MissRate = clamp01(mb.Branch.MissRate * (1 + p))
		row, err := calib.ScoreRow(ctx, s.Pipe, s.Memo, mb, s.workload("SW"), []pum.CacheCfg{cc})
		if err != nil {
			return nil, err
		}
		pt := row.Points[0]
		out.Board = pt.Board
		out.Points = append(out.Points, SensitivityPoint{Perturb: p, TLM: pt.Est, Err: pt.ErrPct})
	}
	return out, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// String renders the sensitivity sweep.
func (s *Sensitivity) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation A1: sensitivity of the estimate to statistical-model error (%s, board=%d)\n", s.Cfg, s.Board)
	fmt.Fprintf(&sb, "%10s %12s %9s\n", "perturb", "TLM", "err%")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%+9.0f%% %12d %8.2f%%\n", 100*p.Perturb, p.TLM, p.Err)
	}
	return sb.String()
}

// Granularity is the sc_wait-granularity ablation (§4.3): per-block waits
// versus accumulated waits at transaction boundaries must give identical
// cycle counts but different simulation speed.
type Granularity struct {
	Design      string
	PerTxCycles uint64
	PerBBCycles uint64
	PerTxWall   time.Duration
	PerBBWall   time.Duration
	PerTxEndPs  uint64
	PerBBEndPs  uint64
}

// RunGranularity runs the timed TLM of a design in both wait modes.
func RunGranularity(ctx context.Context, s *Setup, design string) (*Granularity, error) {
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	d, _, err := s.design(ctx, design, cc)
	if err != nil {
		return nil, err
	}
	tx, err := s.Pipe.SimulateCtx(ctx, d, timed)
	if err != nil {
		return nil, err
	}
	bb, err := s.Pipe.SimulateCtx(ctx, d, tlm.Options{Timed: true, WaitMode: tlm.WaitPerBlock})
	if err != nil {
		return nil, err
	}
	return &Granularity{
		Design:      design,
		PerTxCycles: tx.CyclesByPE["mb"],
		PerBBCycles: bb.CyclesByPE["mb"],
		PerTxWall:   tx.Wall,
		PerBBWall:   bb.Wall,
		PerTxEndPs:  uint64(tx.EndPs),
		PerBBEndPs:  uint64(bb.EndPs),
	}, nil
}

// String renders the granularity comparison.
func (g *Granularity) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation A2: wait granularity (%s)\n", g.Design)
	fmt.Fprintf(&sb, "%-16s %14s %14s\n", "", "per-transaction", "per-block")
	fmt.Fprintf(&sb, "%-16s %14d %14d\n", "mb cycles", g.PerTxCycles, g.PerBBCycles)
	fmt.Fprintf(&sb, "%-16s %14v %14v\n", "wall time", g.PerTxWall.Round(time.Millisecond), g.PerBBWall.Round(time.Millisecond))
	return sb.String()
}

// DetailLevel is one row of the PUM-detail ablation.
type DetailLevel struct {
	Name   string
	Detail core.Detail
	TLM    uint64
	Err    float64
	Anno   time.Duration
}

// PUMDetail is the accuracy/effort tradeoff ablation of §1: the more PE
// features modeled, the more accurate (and the slower) the annotation.
type PUMDetail struct {
	Cfg    pum.CacheCfg
	Board  uint64
	Levels []DetailLevel
}

// RunPUMDetail scores the SW design's estimate at cc against the board
// with increasing PUM detail, one Setup pipeline per level.
func RunPUMDetail(ctx context.Context, s *Setup, cc pum.CacheCfg) (*PUMDetail, error) {
	d, e, err := s.design(ctx, "SW", cc)
	if err != nil {
		return nil, err
	}
	refs, err := e.Refs(ctx, []pum.CacheCfg{cc})
	if err != nil {
		return nil, err
	}
	out := &PUMDetail{Cfg: cc, Board: refs[0]}
	levels := []DetailLevel{
		{Name: "schedule only", Detail: core.Detail{}},
		{Name: "+memory", Detail: core.Detail{Memory: true}},
		{Name: "+memory+branch", Detail: core.FullDetail},
	}
	for _, lv := range levels {
		p, anno, err := calib.Estimate(ctx, s.pipeline(lv.Detail), d, cc, out.Board)
		if err != nil {
			return nil, err
		}
		lv.TLM, lv.Err, lv.Anno = p.Est, p.ErrPct, anno
		out.Levels = append(out.Levels, lv)
	}
	return out, nil
}

// String renders the detail ablation.
func (p *PUMDetail) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation A3: PUM detail vs accuracy (%s, board=%d)\n", p.Cfg, p.Board)
	fmt.Fprintf(&sb, "%-16s %12s %9s %12s\n", "detail", "TLM", "err%", "anno time")
	for _, lv := range p.Levels {
		fmt.Fprintf(&sb, "%-16s %12d %8.2f%% %12v\n", lv.Name, lv.TLM, lv.Err, lv.Anno.Round(time.Microsecond))
	}
	return sb.String()
}
