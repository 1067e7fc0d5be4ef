package experiments

import (
	"context"
	"fmt"
	"strings"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/rtos"
	"ese/internal/tlm"
)

// RTOSRow is one scheduling configuration of the consolidation study.
type RTOSRow struct {
	Label       string
	Cfg         rtos.Config
	TotalCycles uint64 // end-to-end time in CPU cycles
	DecCycles   uint64 // decoder task CPU time
	EncCycles   uint64 // encoder task CPU time
	Switches    uint64
}

// RTOSStudy is the timed-RTOS extension experiment: the MP3-like decoder
// and the JPEG-like encoder consolidated onto one processor, across RTOS
// policies and parameters.
type RTOSStudy struct {
	TwoPECycles uint64 // reference: each task on its own processor
	Rows        []RTOSRow
}

// RunRTOSStudy runs the consolidation sweep. The media program (both
// tasks in one source) is compiled once and mapped onto two processors,
// one task each (the reference), and onto one processor running both
// tasks under each RTOS configuration.
func RunRTOSStudy(ctx context.Context, s *Setup) (*RTOSStudy, error) {
	src, err := apps.MediaSource("SW", s.Eval, apps.JPEGConfig{Blocks: 12, Seed: 0xBEEF})
	if err != nil {
		return nil, err
	}
	prog, err := apps.Compile("media.c", src)
	if err != nil {
		return nil, err
	}
	mb, err := s.MB.WithCache(pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024})
	if err != nil {
		return nil, err
	}
	simulate := func(name string, pes ...*platform.PE) (*tlm.Result, error) {
		d := &platform.Design{Name: name, Program: prog, Bus: platform.DefaultBus(), PEs: pes}
		return s.Pipe.SimulateCtx(ctx, d, timed)
	}
	out := &RTOSStudy{}
	refRes, err := simulate("media-2pe",
		&platform.PE{Name: "p0", Kind: platform.Processor, Entry: "main", PUM: mb},
		&platform.PE{Name: "p1", Kind: platform.Processor, Entry: "jpeg_main", PUM: mb})
	if err != nil {
		return nil, err
	}
	out.TwoPECycles = refRes.EndCycles(100_000_000)

	configs := []struct {
		label string
		cfg   rtos.Config
	}{
		{"cooperative", rtos.Config{Policy: rtos.Cooperative, ContextSwitchCycles: 100}},
		{"rr 10k", rtos.Config{Policy: rtos.RoundRobin, TimeSliceCycles: 10_000, ContextSwitchCycles: 100}},
		{"rr 100k", rtos.Config{Policy: rtos.RoundRobin, TimeSliceCycles: 100_000, ContextSwitchCycles: 100}},
		{"rr 1M", rtos.Config{Policy: rtos.RoundRobin, TimeSliceCycles: 1_000_000, ContextSwitchCycles: 100}},
		{"priority dec", rtos.Config{Policy: rtos.PriorityPreemptive, ContextSwitchCycles: 100}},
	}
	for _, c := range configs {
		res, err := simulate("media-rtos", &platform.PE{
			Name: "cpu",
			Kind: platform.Processor,
			PUM:  mb,
			Tasks: []platform.SWTask{
				{Name: "dec", Entry: "main", Priority: 5},
				{Name: "enc", Entry: "jpeg_main", Priority: 1},
			},
			RTOS: c.cfg,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, RTOSRow{
			Label:       c.label,
			Cfg:         c.cfg,
			TotalCycles: res.EndCycles(100_000_000),
			DecCycles:   res.CyclesByPE["cpu/dec"],
			EncCycles:   res.CyclesByPE["cpu/enc"],
			Switches:    res.SwitchesByPE["cpu"],
		})
	}
	return out, nil
}

// String renders the study.
func (r *RTOSStudy) String() string {
	var sb strings.Builder
	sb.WriteString("Extension E1: timed RTOS model — decoder + encoder on one processor\n")
	fmt.Fprintf(&sb, "reference (2 PEs): total %d cycles\n", r.TwoPECycles)
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s %10s\n", "policy", "total", "dec cpu", "enc cpu", "switches")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %12d %12d %12d %10d\n",
			row.Label, row.TotalCycles, row.DecCycles, row.EncCycles, row.Switches)
	}
	return sb.String()
}

// OverlapRow is one cache config of the overlap-compensation ablation.
type OverlapRow struct {
	Cfg        pum.CacheCfg
	Board      uint64
	Faithful   uint64 // paper's Algorithm 1 as written
	FaithErr   float64
	Overlap    uint64 // with pipeline-overlap compensation (extension)
	OverlapErr float64
}

// OverlapStudy is ablation A5: the pipeline-overlap compensation extension
// versus the paper's literal Algorithm 1, on the SW design.
type OverlapStudy struct {
	Rows                 []OverlapRow
	AvgFaith, AvgOverlap float64
}

// RunOverlapStudy scores both estimators of the SW design against the
// board across the standard cache sweep, one Setup pipeline each: the
// faithful column is the scorer's row for the design.
func RunOverlapStudy(ctx context.Context, s *Setup) (*OverlapStudy, error) {
	faith, err := calib.ScoreRow(ctx, s.pipeline(core.FullDetail), s.Memo, s.MB, s.workload("SW"), pum.StandardCacheConfigs)
	if err != nil {
		return nil, err
	}
	over, err := calib.ScoreRow(ctx, s.pipeline(core.OverlapDetail), s.Memo, s.MB, s.workload("SW"), pum.StandardCacheConfigs)
	if err != nil {
		return nil, err
	}
	out := &OverlapStudy{AvgFaith: faith.MAPE, AvgOverlap: over.MAPE}
	for i, cc := range pum.StandardCacheConfigs {
		f, o := faith.Points[i], over.Points[i]
		out.Rows = append(out.Rows, OverlapRow{
			Cfg: cc, Board: f.Board,
			Faithful: f.Est, FaithErr: f.ErrPct,
			Overlap: o.Est, OverlapErr: o.ErrPct,
		})
	}
	return out, nil
}

// String renders the study.
func (o *OverlapStudy) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation A5: pipeline-overlap compensation (extension) vs faithful Algorithm 1\n")
	fmt.Fprintf(&sb, "%-9s %12s %12s %9s %12s %9s\n",
		"I/D cache", "Board", "faithful", "err%", "overlap", "err%")
	for _, r := range o.Rows {
		fmt.Fprintf(&sb, "%-9s %12d %12d %8.2f%% %12d %8.2f%%\n",
			r.Cfg, r.Board, r.Faithful, r.FaithErr, r.Overlap, r.OverlapErr)
	}
	fmt.Fprintf(&sb, "%-9s %12s %12s %8.2f%% %12s %8.2f%%   (avg |err|)\n",
		"Average", "", "", o.AvgFaith, "", o.AvgOverlap)
	return sb.String()
}

// BlockSizeRow is one variant of the block-size ablation.
type BlockSizeRow struct {
	Label   string
	Blocks  int
	AvgOps  float64
	Board   uint64
	TLM     uint64
	Err     float64
	ErrComp float64 // with overlap compensation
}

// BlockSizeStudy is ablation A6: how the basic-block size distribution
// (raw lowering vs compiler-style CFG simplification) affects both the
// platform (fewer jumps on the board) and the estimate (fewer per-block
// scheduling boundaries).
type BlockSizeStudy struct {
	Rows []BlockSizeRow
}

// RunBlockSizeStudy scores the SW design at 8k/4k with raw and simplified
// CFGs, each with and without overlap compensation. The raw row is the
// scorer's point for the design; the simplified CFG is a fresh compile of
// it, simplified, so its board run bypasses the memo of the evaluation
// workload.
func RunBlockSizeStudy(ctx context.Context, s *Setup) (*BlockSizeStudy, error) {
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	raw, e, err := s.design(ctx, "SW", cc)
	if err != nil {
		return nil, err
	}
	refs, err := e.Refs(ctx, []pum.CacheCfg{cc})
	if err != nil {
		return nil, err
	}
	simp, err := apps.MP3Design("SW", s.Eval, s.MB, cc)
	if err != nil {
		return nil, err
	}
	cdfg.SimplifyProgram(simp.Program)
	brs, err := rtl.RunBoards(ctx, []*platform.Design{simp}, 0)
	if err != nil {
		return nil, err
	}
	out := &BlockSizeStudy{}
	for _, v := range []struct {
		label string
		d     *platform.Design
		board uint64
	}{
		{"raw lowering", raw, refs[0]},
		{"simplified CFG", simp, brs[0].EndCycles(simp.Bus.ClockHz)},
	} {
		p, _, err := calib.Estimate(ctx, s.Pipe, v.d, cc, v.board)
		if err != nil {
			return nil, err
		}
		pc, _, err := calib.Estimate(ctx, s.pipeline(core.OverlapDetail), v.d, cc, v.board)
		if err != nil {
			return nil, err
		}
		prog := v.d.Program
		out.Rows = append(out.Rows, BlockSizeRow{
			Label: v.label, Blocks: prog.NumBlocks(),
			AvgOps: float64(prog.NumInstrs()) / float64(prog.NumBlocks()),
			Board:  v.board, TLM: p.Est, Err: p.ErrPct, ErrComp: pc.ErrPct,
		})
	}
	return out, nil
}

// String renders the block-size study.
func (b *BlockSizeStudy) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation A6: basic-block size vs estimation error (SW design, 8k/4k)\n")
	fmt.Fprintf(&sb, "%-16s %8s %8s %12s %12s %9s %12s\n",
		"CFG", "blocks", "ops/bb", "board", "TLM", "err%", "overlap err%")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-16s %8d %8.1f %12d %12d %8.2f%% %11.2f%%\n",
			r.Label, r.Blocks, r.AvgOps, r.Board, r.TLM, r.Err, r.ErrComp)
	}
	return sb.String()
}
