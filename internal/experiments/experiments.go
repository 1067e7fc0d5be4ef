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
// Calibration, board references and the board-vs-estimate points of
// Tables 2–3 come from internal/calib, the same path that produces the
// accuracy scoreboard (BENCH_accuracy.json).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/core"
	"ese/internal/engine"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// Setup bundles what every experiment needs: the calibrated processor
// model, the evaluation workload, one shared estimation pipeline and one
// board-reference memo. Every timed-TLM run of every experiment goes
// through the pipeline, so the cache-configuration sweeps of Tables 2–3
// (and the ablations) compute each Algorithm 1 schedule once and reuse it
// across configurations — Pipe.Stats() exposes the hit counters. Every
// board reference of the evaluation workload goes through Boards, so each
// is simulated once per Setup.
type Setup struct {
	Eval   apps.MP3Config
	MB     *pum.PUM         // calibrated MicroBlaze-like model
	Pipe   *engine.Pipeline // shared staged pipeline (schedule/estimate cache)
	Boards *calib.Boards    // board references of the evaluation workload
}

// NewSetup calibrates the MicroBlaze model on the MP3 training workload
// (apps.TrainMP3) and evaluates on frames frames of the default seed; opts
// configures the shared pipeline (watchdog timeout, strictness, workers).
func NewSetup(frames int, opts engine.Options) (*Setup, error) {
	ts, err := calib.Trainings("mp3")
	if err != nil {
		return nil, err
	}
	mb, _, err := calib.Calibrate(pum.MicroBlaze(), ts, pum.StandardCacheConfigs, 0)
	if err != nil {
		return nil, err
	}
	return &Setup{
		Eval:   apps.MP3Config{Frames: frames, Seed: apps.DefaultMP3.Seed},
		MB:     mb,
		Pipe:   engine.New(opts),
		Boards: calib.NewBoards(frames, apps.DefaultJPEG.Blocks, 0),
	}, nil
}

// board returns the board reference of the MP3 SW design at cc.
func (s *Setup) board(cc pum.CacheCfg) (uint64, error) {
	d, err := apps.MP3Design("SW", s.Eval, s.MB, cc)
	if err != nil {
		return 0, err
	}
	return s.Boards.Ref("mp3", "SW", cc, d)
}

// simulateDetail annotates d at detail through the shared pipeline's
// DelaysCtx — the one per-call detail override, for the ablations that
// vary it — and simulates the tables with transaction-boundary waits. It
// also returns the annotation time.
func (s *Setup) simulateDetail(d *platform.Design, detail core.Detail) (*tlm.Result, time.Duration, error) {
	dm, anno, err := s.Pipe.DelaysCtx(context.Background(), d, detail)
	if err != nil {
		return nil, anno, err
	}
	res, err := s.Pipe.Simulate(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Delays: dm})
	return res, anno, err
}

// score scores s.MB's estimate of one MP3 design against the board across
// the standard cache sweep.
func (s *Setup) score(design string) (calib.Row, error) {
	return calib.ScoreRow(s.Pipe, s.Boards, s.MB, "mp3", design, pum.StandardCacheConfigs)
}

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
func RunTable1(s *Setup) (*Table1, error) {
	t := &Table1{}
	cacheCfg := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	for _, design := range apps.MP3DesignNames {
		d, err := apps.MP3Design(design, s.Eval, s.MB, cacheCfg)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Design: design}

		fun, err := s.Pipe.RunFunctional(d)
		if err != nil {
			return nil, err
		}
		row.TLMFunc = fun.Wall

		timed, err := s.Pipe.RunTimed(d)
		if err != nil {
			return nil, err
		}
		row.TLMTimed = timed.Wall
		row.Anno = timed.AnnoTime

		board, err := rtl.RunBoard(d, 0)
		if err != nil {
			return nil, err
		}
		row.PCAM = board.Wall

		if design == "SW" {
			isa, err := iss.Generate(d.Program)
			if err != nil {
				return nil, err
			}
			m := iss.NewMachine(isa)
			if err := m.Start("main"); err != nil {
				return nil, err
			}
			sim := iss.NewISS(m, iss.DefaultTiming(cacheCfg.ISize, cacheCfg.DSize))
			start := time.Now()
			if err := sim.Run(0); err != nil {
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
// columns are the scorer's points for the SW design.
func RunTable2(s *Setup) (*Table2, error) {
	scored, err := s.score("SW")
	if err != nil {
		return nil, err
	}
	prog, err := apps.CompileMP3("SW", s.Eval)
	if err != nil {
		return nil, err
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		return nil, err
	}
	t := &Table2{AvgTLMErr: scored.MAPE}
	for i, cc := range pum.StandardCacheConfigs {
		p := scored.Points[i]
		m := iss.NewMachine(isa)
		if err := m.Start("main"); err != nil {
			return nil, err
		}
		sim := iss.NewISS(m, iss.DefaultTiming(cc.ISize, cc.DSize))
		if err := sim.Run(0); err != nil {
			return nil, err
		}
		row := Table2Row{Cfg: cc, Board: p.Board, ISS: sim.Cycles, TLM: p.Est, TLMErr: p.ErrPct}
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
func RunTable3(s *Setup) (*Table3, error) {
	designs := []string{"SW+1", "SW+2", "SW+4"}
	t := &Table3{
		Designs: designs,
		AvgErr:  make(map[string]float64, len(designs)),
	}
	for _, cc := range pum.StandardCacheConfigs {
		t.Rows = append(t.Rows, Table3Row{Cfg: cc, Cells: make(map[string]Table3Cell, len(designs))})
	}
	for _, design := range designs {
		scored, err := s.score(design)
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
// ratio by the given relative amounts and re-estimates the SW design.
func RunSensitivity(s *Setup, cc pum.CacheCfg, perturbs []float64) (*Sensitivity, error) {
	board, err := s.board(cc)
	if err != nil {
		return nil, err
	}
	out := &Sensitivity{Cfg: cc, Board: board}

	for _, p := range perturbs {
		mb := s.MB.Clone()
		st := mb.Mem.Table[cc]
		st.IHitRate = clamp01(1 - (1-st.IHitRate)*(1+p))
		st.DHitRate = clamp01(1 - (1-st.DHitRate)*(1+p))
		mb.Mem.Table[cc] = st
		mb.Branch.MissRate = clamp01(mb.Branch.MissRate * (1 + p))
		d, err := apps.MP3Design("SW", s.Eval, mb, cc)
		if err != nil {
			return nil, err
		}
		res, err := s.Pipe.RunTimed(d)
		if err != nil {
			return nil, err
		}
		est := res.CyclesByPE["mb"]
		out.Points = append(out.Points, SensitivityPoint{
			Perturb: p,
			TLM:     est,
			Err:     pct(float64(est), float64(out.Board)),
		})
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
func RunGranularity(s *Setup, design string) (*Granularity, error) {
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	d, err := apps.MP3Design(design, s.Eval, s.MB, cc)
	if err != nil {
		return nil, err
	}
	tx, err := s.Pipe.Simulate(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
	if err != nil {
		return nil, err
	}
	d2, err := apps.MP3Design(design, s.Eval, s.MB, cc)
	if err != nil {
		return nil, err
	}
	bb, err := s.Pipe.Simulate(d2, tlm.Options{Timed: true, WaitMode: tlm.WaitPerBlock})
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

// RunPUMDetail estimates the SW design with increasing PUM detail.
func RunPUMDetail(s *Setup, cc pum.CacheCfg) (*PUMDetail, error) {
	board, err := s.board(cc)
	if err != nil {
		return nil, err
	}
	out := &PUMDetail{Cfg: cc, Board: board}
	levels := []DetailLevel{
		{Name: "schedule only", Detail: core.Detail{}},
		{Name: "+memory", Detail: core.Detail{Memory: true}},
		{Name: "+memory+branch", Detail: core.FullDetail},
	}
	for _, lv := range levels {
		d, err := apps.MP3Design("SW", s.Eval, s.MB, cc)
		if err != nil {
			return nil, err
		}
		res, anno, err := s.simulateDetail(d, lv.Detail)
		if err != nil {
			return nil, err
		}
		lv.TLM = res.CyclesByPE["mb"]
		lv.Err = pct(float64(lv.TLM), float64(out.Board))
		lv.Anno = anno
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

// CheckFunctionalEquivalence verifies the keystone invariant across every
// design and engine: identical out() streams everywhere.
func CheckFunctionalEquivalence(s *Setup) error {
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	var ref []int32
	for _, design := range apps.MP3DesignNames {
		d, err := apps.MP3Design(design, s.Eval, s.MB, cc)
		if err != nil {
			return err
		}
		fun, err := s.Pipe.RunFunctional(d)
		if err != nil {
			return err
		}
		timed, err := s.Pipe.RunTimed(d)
		if err != nil {
			return err
		}
		board, err := rtl.RunBoard(d, 0)
		if err != nil {
			return err
		}
		outs := [][]int32{fun.OutByPE["mb"], timed.OutByPE["mb"], board.PEs["mb"].Out}
		if ref == nil {
			ref = outs[0]
		}
		for i, o := range outs {
			if !equalI32(o, ref) {
				return fmt.Errorf("experiments: %s engine %d output diverges", design, i)
			}
		}
	}
	return nil
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
