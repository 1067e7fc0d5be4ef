package core

import (
	"math"

	"ese/internal/cdfg"
	"ese/internal/pum"
)

// Estimate is the decomposed delay estimate of one basic block, in PE
// cycles. Total is the rounded sum, as Algorithm 2 returns it.
type Estimate struct {
	Sched     int     // Algorithm 1 optimistic scheduling delay
	BranchPen float64 // statistical branch misprediction penalty
	IDelay    float64 // statistical instruction-fetch delay
	DDelay    float64 // statistical data-access delay
	Ops       int     // "# of BB Ops"
	Operands  int     // "# of BB Operands" (data-memory operand accesses)
	Total     float64 // round(Sched + BranchPen + IDelay + DDelay)
	// Unmapped counts ops whose class the PUM does not map; they were
	// scheduled with the fallback latency (graceful degradation).
	Unmapped int
}

// Degraded reports whether the estimate includes fallback-latency ops, i.e.
// the PUM did not map every operation class the block uses.
func (e Estimate) Degraded() bool { return e.Unmapped > 0 }

// SchedResult is the statistics-independent part of a block's estimate:
// Algorithm 1's optimistic scheduling delay plus the structural block
// counts that Algorithm 2's statistical terms scale. It depends only on
// the block's body and the PUM's execution/datapath sub-models — not on
// the branch or memory statistics — so it stays valid when the statistical
// models are retargeted (e.g. across a cache-configuration sweep), which
// is what makes it worth caching (see Cache).
type SchedResult struct {
	Sched    int  // Algorithm 1 optimistic scheduling delay
	Ops      int  // "# of BB Ops"
	Operands int  // "# of BB Operands"
	CondBr   bool // block ends in a conditional branch
	// Unmapped counts ops scheduled with the fallback latency because the
	// PUM does not map their class.
	Unmapped int
}

// Detail selects which PUM sub-models participate in BlockDelay. The full
// model is the paper's Algorithm 2; the reduced settings implement the
// PUM-detail ablation (scheduling only, +memory, +branch).
type Detail struct {
	Memory bool
	Branch bool
	// PipelineOverlap enables an extension beyond the paper: Algorithm 1
	// schedules every block from an empty pipeline, so each block pays the
	// pipeline fill and the final issue iteration even though consecutive
	// blocks overlap on real in-order hardware. With this flag the fill
	// cost (pipeline depth) is subtracted from each block's schedule,
	// clamped at the block's issue-bound lower limit. This markedly
	// improves accuracy on branchy code with small basic blocks (see
	// ablation A5) at the cost of deviating from the paper's pseudocode.
	PipelineOverlap bool
}

// bits encodes the detail flags for use in cache keys.
func (d Detail) bits() uint8 {
	var b uint8
	if d.Memory {
		b |= 1
	}
	if d.Branch {
		b |= 2
	}
	if d.PipelineOverlap {
		b |= 4
	}
	return b
}

// FullDetail applies every sub-model, as the paper does.
var FullDetail = Detail{Memory: true, Branch: true}

// OverlapDetail is FullDetail plus the pipeline-overlap compensation
// extension.
var OverlapDetail = Detail{Memory: true, Branch: true, PipelineOverlap: true}

// ScheduleBlock runs Algorithm 1 on one block and collects the structural
// counts Algorithm 2 needs, reusing the scheduler's scratch state.
func (s *Scheduler) ScheduleBlock(b *cdfg.Block) SchedResult {
	d := cdfg.BuildDFG(b)
	sr := SchedResult{
		Sched:    s.Schedule(d),
		Ops:      cdfg.NumOps(b),
		Operands: cdfg.BlockMemOperands(b),
	}
	for i := range b.Instrs {
		if s.Unmapped(cdfg.OpClass(b.Instrs[i].Op)) {
			sr.Unmapped++
		}
	}
	if t := b.Terminator(); t != nil && t.Op == cdfg.OpBr {
		sr.CondBr = true
	}
	return sr
}

// ScheduleBlock is the one-shot form of Scheduler.ScheduleBlock.
func ScheduleBlock(b *cdfg.Block, p *pum.PUM) SchedResult {
	return NewScheduler(p).ScheduleBlock(b)
}

// ComposeEstimate extends a schedule result with the statistical branch
// misprediction penalty (for pipelined PEs, on blocks ending in a
// conditional branch) and the statistical i-cache and d-cache delays —
// the statistical half of Algorithm 2.
func ComposeEstimate(sr SchedResult, p *pum.PUM, detail Detail) Estimate {
	e := Estimate{
		Sched:    sr.Sched,
		Ops:      sr.Ops,
		Operands: sr.Operands,
		Unmapped: sr.Unmapped,
	}
	if detail.PipelineOverlap && p.Pipelined && e.Ops > 0 {
		// Remove the per-block pipeline fill that back-to-back execution
		// hides, but never go below the issue-rate lower bound. Only a
		// pipelined PE overlaps blocks: a custom-HW datapath's one-stage
		// "pipeline" runs each block's schedule as is. A partial
		// model (e.g. JSON-loaded without pipelines, or with zero issue
		// widths) has no fill to compensate: keep the unadjusted schedule
		// rather than indexing an empty pipeline list or dividing by a
		// zero total issue width.
		width := 0
		for _, pl := range p.Pipelines {
			width += pl.IssueWidth
		}
		if len(p.Pipelines) > 0 && width > 0 {
			fill := len(p.Pipelines[0].Stages)
			floor := (e.Ops + width - 1) / width
			if s := e.Sched - fill; s >= floor {
				e.Sched = s
			} else {
				e.Sched = floor
			}
		}
	}
	if detail.Branch && p.Pipelined && sr.CondBr {
		e.BranchPen = p.Branch.MissRate * p.Branch.Penalty
	}
	if detail.Memory {
		st := p.Mem.Current
		// A PE with a memory hierarchy pays instruction-fetch and data
		// delays; a PE with single-cycle local storage (ExtLatency 0 and no
		// caches) folds memory cost into the scheduled load/store ops.
		hasMemPath := p.Mem.HasICache || p.Mem.HasDCache || p.Mem.ExtLatency > 0
		if hasMemPath {
			iMissRate := 1 - st.IHitRate
			e.IDelay = float64(e.Ops) * (iMissRate*st.IMissPenalty + st.IHitRate*st.IHitDelay)
			dMissRate := 1 - st.DHitRate
			e.DDelay = float64(e.Operands) * (dMissRate*st.DMissPenalty + st.DHitRate*st.DHitDelay)
		}
	}
	e.Total = math.Round(float64(e.Sched) + e.BranchPen + e.IDelay + e.DDelay)
	return e
}

// BlockDelay computes the estimated delay of one basic block on the PUM —
// Algorithm 2 of the paper: the optimistic scheduling delay of Algorithm 1
// extended with the statistical penalties of ComposeEstimate.
func BlockDelay(b *cdfg.Block, p *pum.PUM, detail Detail) Estimate {
	return ComposeEstimate(ScheduleBlock(b, p), p, detail)
}
