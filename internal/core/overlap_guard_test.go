package core

import (
	"testing"

	"ese/internal/pum"
)

// partialPUM mimics a JSON-loaded model that skipped validation: name and
// statistics only, no datapath. Before the guard, ComposeEstimate under
// OverlapDetail dereferenced p.Pipelines[0] (index out of range).
func partialPUM() *pum.PUM {
	return &pum.PUM{
		Name:      "partial",
		ClockHz:   100_000_000,
		Pipelined: true,
		Branch:    pum.BranchModel{MissRate: 0.2, Penalty: 3},
	}
}

func TestComposeEstimateOverlapNoPipelines(t *testing.T) {
	p := partialPUM()
	sr := SchedResult{Sched: 7, Ops: 4, Operands: 2, CondBr: true}
	e := ComposeEstimate(sr, p, OverlapDetail)
	// The overlap compensation must fall back to the unadjusted schedule.
	if e.Sched != sr.Sched {
		t.Errorf("Sched = %d, want unadjusted %d", e.Sched, sr.Sched)
	}
	// The statistical terms still apply.
	if e.BranchPen != p.Branch.MissRate*p.Branch.Penalty {
		t.Errorf("BranchPen = %v, want %v", e.BranchPen, p.Branch.MissRate*p.Branch.Penalty)
	}
	want := ComposeEstimate(sr, p, FullDetail)
	if e.Total != want.Total {
		t.Errorf("Total = %v, want FullDetail-equivalent %v", e.Total, want.Total)
	}
}

func TestComposeEstimateOverlapZeroIssueWidth(t *testing.T) {
	// Pipelines present, but the summed issue width is zero — the floor
	// computation would divide by zero without the guard.
	p := partialPUM()
	p.Pipelines = []pum.Pipeline{
		{Name: "a", Stages: []string{"IF", "EX"}, IssueWidth: 0},
		{Name: "b", Stages: []string{"IF", "EX"}, IssueWidth: 0},
	}
	sr := SchedResult{Sched: 9, Ops: 5}
	e := ComposeEstimate(sr, p, OverlapDetail)
	if e.Sched != sr.Sched {
		t.Errorf("Sched = %d, want unadjusted %d", e.Sched, sr.Sched)
	}
}

func TestComposeEstimateOverlapStillAdjustsValidModels(t *testing.T) {
	// Sanity: the guard must not disable the compensation on well-formed
	// pipelined models.
	p := pum.MicroBlaze()
	sr := SchedResult{Sched: 20, Ops: 4}
	plain := ComposeEstimate(sr, p, Detail{PipelineOverlap: true})
	fill := len(p.Pipelines[0].Stages)
	if want := sr.Sched - fill; plain.Sched != want {
		t.Errorf("adjusted Sched = %d, want %d", plain.Sched, want)
	}
}

func TestComposeEstimateOverlapSkipsCustomHW(t *testing.T) {
	// A custom-HW PE declares a one-stage datapath pipeline but is not
	// pipelined: its blocks do not overlap, so no fill comes off them.
	p := pum.CustomHW("hw", 100_000_000)
	sr := SchedResult{Sched: 9, Ops: 4}
	if e := ComposeEstimate(sr, p, OverlapDetail); e.Sched != sr.Sched {
		t.Errorf("Sched = %d, want unadjusted %d", e.Sched, sr.Sched)
	}
}
