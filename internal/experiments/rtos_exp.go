package experiments

import (
	"fmt"
	"strings"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/rtos"
)

// RTOSRow is one scheduling configuration of the consolidation study.
type RTOSRow struct {
	Label       string
	Cfg         rtos.Config
	TotalCycles uint64 // end-to-end time in CPU cycles
	DecCycles   uint64 // decoder task CPU time
	EncCycles   uint64 // encoder task CPU time
	DecWait     uint64 // decoder time spent waiting for the CPU
	EncWait     uint64
	Switches    uint64
}

// RTOSStudy is the timed-RTOS extension experiment: the MP3-like decoder
// and the JPEG-like encoder consolidated onto one processor, across RTOS
// policies and parameters.
type RTOSStudy struct {
	TwoPECycles uint64 // reference: each task on its own processor
	Rows        []RTOSRow
}

// rtosMediaDesign builds the single-CPU two-task design.
func rtosMediaDesign(s *Setup, cfg rtos.Config) (*platform.Design, error) {
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
	return &platform.Design{
		Name:    "media-rtos",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{{
			Name: "cpu",
			Kind: platform.Processor,
			PUM:  mb,
			Tasks: []platform.SWTask{
				{Name: "dec", Entry: "main", Priority: 5},
				{Name: "enc", Entry: "jpeg_main", Priority: 1},
			},
			RTOS: cfg,
		}},
	}, nil
}

// twoPEMediaDesign maps the two tasks to two processors (the reference).
func twoPEMediaDesign(s *Setup) (*platform.Design, error) {
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
	return &platform.Design{
		Name:    "media-2pe",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "p0", Kind: platform.Processor, Entry: "main", PUM: mb},
			{Name: "p1", Kind: platform.Processor, Entry: "jpeg_main", PUM: mb},
		},
	}, nil
}

// RunRTOSStudy runs the consolidation sweep.
func RunRTOSStudy(s *Setup) (*RTOSStudy, error) {
	out := &RTOSStudy{}
	ref, err := twoPEMediaDesign(s)
	if err != nil {
		return nil, err
	}
	refRes, err := s.Pipe.RunTimed(ref)
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
		d, err := rtosMediaDesign(s, c.cfg)
		if err != nil {
			return nil, err
		}
		res, err := s.Pipe.RunTimed(d)
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

// RunOverlapStudy measures both estimators against the board.
func RunOverlapStudy(s *Setup) (*OverlapStudy, error) {
	out := &OverlapStudy{}
	for _, cc := range pum.StandardCacheConfigs {
		board, err := s.board(cc)
		if err != nil {
			return nil, err
		}
		row := OverlapRow{Cfg: cc, Board: board}

		for _, variant := range []struct {
			detail core.Detail
			cycles *uint64
			errPct *float64
		}{
			{core.FullDetail, &row.Faithful, &row.FaithErr},
			{core.OverlapDetail, &row.Overlap, &row.OverlapErr},
		} {
			d, err := apps.MP3Design("SW", s.Eval, s.MB, cc)
			if err != nil {
				return nil, err
			}
			res, _, err := s.simulateDetail(d, variant.detail)
			if err != nil {
				return nil, err
			}
			*variant.cycles = res.CyclesByPE["mb"]
			*variant.errPct = pct(float64(*variant.cycles), float64(row.Board))
		}
		out.Rows = append(out.Rows, row)
		out.AvgFaith += abs(row.FaithErr)
		out.AvgOverlap += abs(row.OverlapErr)
	}
	out.AvgFaith /= float64(len(out.Rows))
	out.AvgOverlap /= float64(len(out.Rows))
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

// RunBlockSizeStudy measures the SW design at 8k/4k with raw and
// simplified CFGs.
func RunBlockSizeStudy(s *Setup) (*BlockSizeStudy, error) {
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	out := &BlockSizeStudy{}
	for _, variant := range []struct {
		label    string
		simplify bool
	}{
		{"raw lowering", false},
		{"simplified CFG", true},
	} {
		d, err := apps.MP3Design("SW", s.Eval, s.MB, cc)
		if err != nil {
			return nil, err
		}
		if variant.simplify {
			cdfg.SimplifyProgram(d.Program)
		}
		row := BlockSizeRow{Label: variant.label, Blocks: d.Program.NumBlocks()}
		row.AvgOps = float64(d.Program.NumInstrs()) / float64(d.Program.NumBlocks())

		// The simplified CFG is a different program, so its board run
		// bypasses the memo of the evaluation workload.
		if variant.simplify {
			board, err := rtl.RunBoard(d, 0)
			if err != nil {
				return nil, err
			}
			row.Board = board.PEs["mb"].Cycles
		} else if row.Board, err = s.Boards.Ref("mp3", "SW", cc, d); err != nil {
			return nil, err
		}

		res, err := s.Pipe.RunTimed(d)
		if err != nil {
			return nil, err
		}
		row.TLM = res.CyclesByPE["mb"]
		row.Err = pct(float64(row.TLM), float64(row.Board))

		resC, _, err := s.simulateDetail(d, core.OverlapDetail)
		if err != nil {
			return nil, err
		}
		row.ErrComp = pct(float64(resC.CyclesByPE["mb"]), float64(row.Board))
		out.Rows = append(out.Rows, row)
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
