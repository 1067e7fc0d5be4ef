package core

import (
	"context"
	"math"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/pum"
)

// mbWithCache returns the MicroBlaze PUM with the given cache config.
func mbWithCache(t *testing.T, i, d int) *pum.PUM {
	t.Helper()
	p, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: i, DSize: d})
	if err != nil {
		t.Fatalf("WithCache: %v", err)
	}
	return p
}

func TestBlockDelayUncachedAddsExtLatencyPerOp(t *testing.T) {
	p := mbWithCache(t, 0, 0)
	_, d := synthBlock([]cdfg.Opcode{cdfg.OpAdd, cdfg.OpAdd}, nil)
	e := BlockDelay(d.Block, p, FullDetail)
	// sched = 2+3 = 5; i-delay = 2 ops * ExtLatency; no mem operands.
	if e.Sched != 5 {
		t.Fatalf("sched = %d, want 5", e.Sched)
	}
	wantI := 2 * p.Mem.ExtLatency
	if e.IDelay != wantI {
		t.Fatalf("IDelay = %v, want %v", e.IDelay, wantI)
	}
	if e.DDelay != 0 {
		t.Fatalf("DDelay = %v, want 0", e.DDelay)
	}
	if e.Total != float64(e.Sched)+wantI {
		t.Fatalf("Total = %v, want %v", e.Total, float64(e.Sched)+wantI)
	}
}

func TestBlockDelayDCacheCountsOperands(t *testing.T) {
	p := mbWithCache(t, 8*1024, 4*1024)
	st := p.Mem.Current
	// A load and a store: 2 memory operands.
	b := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpLoad, Dst: cdfg.Temp(0), Arr: cdfg.GlobalRef(0), A: cdfg.Const(0)},
		{Op: cdfg.OpStore, Arr: cdfg.GlobalRef(0), A: cdfg.Const(1), B: cdfg.Temp(0)},
	}}
	e := BlockDelay(b, p, FullDetail)
	wantD := 2 * ((1-st.DHitRate)*st.DMissPenalty + st.DHitRate*st.DHitDelay)
	if math.Abs(e.DDelay-wantD) > 1e-9 {
		t.Fatalf("DDelay = %v, want %v", e.DDelay, wantD)
	}
	wantI := 2 * ((1-st.IHitRate)*st.IMissPenalty + st.IHitRate*st.IHitDelay)
	if math.Abs(e.IDelay-wantI) > 1e-9 {
		t.Fatalf("IDelay = %v, want %v", e.IDelay, wantI)
	}
	if e.Operands != 2 {
		t.Fatalf("Operands = %d, want 2", e.Operands)
	}
}

func TestBlockDelayBranchPenaltyOnlyOnBranches(t *testing.T) {
	p := mbWithCache(t, 32*1024, 16*1024)
	p.Branch.MissRate = 0.25
	p.Branch.Penalty = 4

	then := &cdfg.Block{ID: 1}
	els := &cdfg.Block{ID: 2}
	brBlock := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpAdd, Dst: cdfg.Temp(0), A: cdfg.Const(1), B: cdfg.Const(2)},
		{Op: cdfg.OpBr, A: cdfg.Temp(0), Then: then, Else: els},
	}}
	e := BlockDelay(brBlock, p, FullDetail)
	if e.BranchPen != 1.0 { // 0.25 * 4
		t.Fatalf("BranchPen = %v, want 1.0", e.BranchPen)
	}

	jmpBlock := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpJmp, Target: then},
	}}
	e = BlockDelay(jmpBlock, p, FullDetail)
	if e.BranchPen != 0 {
		t.Fatalf("jump block BranchPen = %v, want 0", e.BranchPen)
	}
}

func TestBlockDelayNoBranchPenaltyOnUnpipelinedPE(t *testing.T) {
	hw := pum.CustomHW("hw", 1)
	hw.Branch.MissRate = 0.5
	hw.Branch.Penalty = 10
	then := &cdfg.Block{ID: 1}
	b := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpBr, A: cdfg.Const(1), Then: then, Else: then},
	}}
	e := BlockDelay(b, hw, FullDetail)
	if e.BranchPen != 0 {
		t.Fatalf("unpipelined PE got branch penalty %v", e.BranchPen)
	}
}

func TestBlockDelayCustomHWHasNoMemoryTerm(t *testing.T) {
	hw := pum.CustomHW("hw", 1)
	b := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpLoad, Dst: cdfg.Temp(0), Arr: cdfg.GlobalRef(0), A: cdfg.Const(0)},
	}}
	e := BlockDelay(b, hw, FullDetail)
	if e.IDelay != 0 || e.DDelay != 0 {
		t.Fatalf("HW PE has statistical memory delay: %+v", e)
	}
	if e.Total != float64(e.Sched) {
		t.Fatalf("HW total %v != sched %d", e.Total, e.Sched)
	}
}

func TestBlockDelayRounding(t *testing.T) {
	p := mbWithCache(t, 32*1024, 16*1024)
	p.Branch.MissRate = 0.3
	p.Branch.Penalty = 1 // 0.3 penalty -> rounds away
	st := p.Mem.Current
	st.IHitRate = 1
	st.DHitRate = 1
	p.Mem.Current = st
	then := &cdfg.Block{ID: 1}
	b := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpBr, A: cdfg.Const(1), Then: then, Else: then},
	}}
	e := BlockDelay(b, p, FullDetail)
	if e.Total != math.Round(float64(e.Sched)+0.3) {
		t.Fatalf("Total = %v, not rounded correctly (sched=%d)", e.Total, e.Sched)
	}
}

func TestDetailAblation(t *testing.T) {
	p := mbWithCache(t, 2*1024, 2*1024)
	b := &cdfg.Block{Instrs: []cdfg.Instr{
		{Op: cdfg.OpLoad, Dst: cdfg.Temp(0), Arr: cdfg.GlobalRef(0), A: cdfg.Const(0)},
		{Op: cdfg.OpBr, A: cdfg.Temp(0), Then: &cdfg.Block{ID: 1}, Else: &cdfg.Block{ID: 2}},
	}}
	full := BlockDelay(b, p, FullDetail)
	schedOnly := BlockDelay(b, p, Detail{})
	memOnly := BlockDelay(b, p, Detail{Memory: true})
	if schedOnly.Total >= memOnly.Total || memOnly.Total > full.Total {
		t.Fatalf("detail ordering violated: sched=%v mem=%v full=%v",
			schedOnly.Total, memOnly.Total, full.Total)
	}
	if schedOnly.IDelay != 0 || schedOnly.BranchPen != 0 {
		t.Fatalf("sched-only estimate has extra terms: %+v", schedOnly)
	}
}

func TestEstimateBlocksDoesNotMutate(t *testing.T) {
	prog := compile(t, `
int a[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) a[i] = i * i;
  out(a[5]);
}`)
	fingerprints := func() map[*cdfg.Block]cdfg.Fingerprint {
		m := make(map[*cdfg.Block]cdfg.Fingerprint)
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				m[b] = b.Fingerprint()
			}
		}
		return m
	}
	before := fingerprints()
	p := mbWithCache(t, 8*1024, 4*1024)
	est, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail, EstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Len() != prog.NumBlocks() {
		t.Fatalf("estimates = %d, want %d", est.Len(), prog.NumBlocks())
	}
	for b, fp := range fingerprints() {
		if fp != before[b] {
			t.Fatalf("%s bb%d: EstimateBlocksCtx changed the block", b.Fn.Name, b.ID)
		}
	}
	for _, e := range est.Estimates() {
		if e.Total < float64(e.Sched) {
			t.Fatalf("total below sched")
		}
	}
}

func TestMoreDetailNeverCheaper(t *testing.T) {
	// Property: adding sub-models can only increase the estimate.
	prog := compile(t, `
int a[32];
int g;
void main() {
  int i;
  for (i = 0; i < 32; i++) {
    if (a[i] > 3) g += a[i] / 3;
    else a[i] = g * i;
  }
  out(g);
}`)
	p := mbWithCache(t, 2*1024, 2*1024)
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			s := BlockDelay(b, p, Detail{}).Total
			m := BlockDelay(b, p, Detail{Memory: true}).Total
			f := BlockDelay(b, p, FullDetail).Total
			if s > m || m > f+0.5 { // rounding may flip by half a cycle
				t.Fatalf("bb%d: detail monotonicity violated: %v %v %v", b.ID, s, m, f)
			}
		}
	}
}
