package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"testing"

	"ese/internal/annotate"
	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// annotateOK annotates prog against p through pl and fails the test on
// error.
func annotateOK(t *testing.T, pl *Pipeline, prog *cdfg.Program, p *pum.PUM) *annotate.Annotated {
	t.Helper()
	a, err := pl.AnnotateCtx(context.Background(), prog, p)
	if err != nil {
		t.Fatalf("AnnotateCtx: %v", err)
	}
	return a
}

// testProgram compiles the MP3 SW workload through a throwaway pipeline.
func testProgram(t *testing.T) *cdfg.Program {
	t.Helper()
	src, err := apps.MP3Source("SW", apps.TrainMP3)
	if err != nil {
		t.Fatalf("MP3Source: %v", err)
	}
	prog, err := New(Options{}).CompileCtx(context.Background(), "mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func numBlocks(prog *cdfg.Program) int {
	n := 0
	for _, fn := range prog.Funcs {
		n += len(fn.Blocks)
	}
	return n
}

// testModels returns the three built-in PUMs under every standard cache
// configuration each supports. CustomHW ships an empty calibration table,
// so only its base (uncached) model participates.
func testModels(t *testing.T) map[string]*pum.PUM {
	t.Helper()
	models := map[string]*pum.PUM{
		"customhw/base": pum.CustomHW("hw", 100_000_000),
	}
	for name, base := range map[string]*pum.PUM{
		"microblaze": pum.MicroBlaze(),
		"dualissue":  pum.DualIssue(),
	} {
		for _, cc := range pum.StandardCacheConfigs {
			m, err := base.WithCache(cc)
			if err != nil {
				t.Fatalf("%s WithCache(%d/%d): %v", name, cc.ISize, cc.DSize, err)
			}
			models[fmt.Sprintf("%s/%d-%d", name, cc.ISize, cc.DSize)] = m
		}
	}
	return models
}

func sameEstimates(t *testing.T, label string, want, got *core.Table) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: estimate table size %d != reference %d", label, got.Len(), want.Len())
	}
	for i, we := range want.Estimates() {
		if ge := got.Estimates()[i]; ge != we {
			t.Fatalf("%s: block %d: got %+v, reference %+v", label, i, ge, we)
		}
	}
}

// TestParallelAnnotationDeterminism is the golden determinism test: for
// every built-in PUM under every supported standard cache configuration,
// the parallel, cached pipeline must produce estimates and generated timed
// C source byte-identical to the serial, uncached reference path — both
// with GOMAXPROCS=1 and with all CPUs.
func TestParallelAnnotationDeterminism(t *testing.T) {
	prog := testProgram(t)
	for gmp := range map[int]bool{1: true, runtime.NumCPU(): true} {
		old := runtime.GOMAXPROCS(gmp)
		t.Logf("GOMAXPROCS=%d", gmp)
		for name, m := range testModels(t) {
			// Serial reference: no cache, one worker, direct core path.
			ref, err := annotate.AnnotateCtx(context.Background(), prog, m, core.FullDetail, core.EstOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for variant, annotateCtx := range map[string]func(context.Context, *cdfg.Program, *pum.PUM) (*annotate.Annotated, error){
				// Uncached, on several workers: the core path without a cache.
				"parallel": func(ctx context.Context, prog *cdfg.Program, m *pum.PUM) (*annotate.Annotated, error) {
					return annotate.AnnotateCtx(ctx, prog, m, core.FullDetail, core.EstOptions{Workers: 4})
				},
				"parallel+cache":   New(Options{}).AnnotateCtx,
				"serial+cache":     New(Options{Workers: 1}).AnnotateCtx,
				"explicit-workers": New(Options{Workers: 4}).AnnotateCtx,
			} {
				label := fmt.Sprintf("gomaxprocs=%d/%s/%s", gmp, name, variant)
				a, err := annotateCtx(context.Background(), prog, m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameEstimates(t, label, ref.Table, a.Table)
				if want, got := ref.EmitTimedC(), a.EmitTimedC(); want != got {
					t.Fatalf("%s: EmitTimedC differs from serial reference", label)
				}
				// Annotating again must be fully served from the cache, when
				// there is one, and still identical.
				a2, err := annotateCtx(context.Background(), prog, m)
				if err != nil {
					t.Fatalf("%s/reannotate: %v", label, err)
				}
				sameEstimates(t, label+"/reannotate", ref.Table, a2.Table)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestSweepReusesSchedules checks the cacheability seam the refactor
// exists for: retargeting the statistical models (cache configurations)
// must not recompute any Algorithm 1 schedule after the first
// configuration, because the datapath fingerprint is unchanged.
func TestSweepReusesSchedules(t *testing.T) {
	prog := testProgram(t)
	n := uint64(numBlocks(prog))
	if n == 0 {
		t.Fatal("no blocks")
	}
	// Content addressing deduplicates structurally identical blocks, so
	// the expected counters are in unique fingerprints, not raw blocks.
	uniq := make(map[cdfg.Fingerprint]bool)
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			uniq[b.Fingerprint()] = true
		}
	}
	u := uint64(len(uniq))
	t.Logf("%d blocks, %d unique fingerprints", n, u)

	// Workers=1 keeps the hit/miss counters deterministic: concurrent
	// workers may both miss on twin blocks before either publishes.
	pl := New(Options{Workers: 1})
	base := pum.MicroBlaze()
	for _, cc := range pum.StandardCacheConfigs {
		m, err := base.WithCache(cc)
		if err != nil {
			t.Fatalf("WithCache: %v", err)
		}
		annotateOK(t, pl, prog, m)
	}
	cs := pl.Stats()
	nCfg := uint64(len(pum.StandardCacheConfigs))
	if cs.SchedMisses != u {
		t.Errorf("schedule misses = %d, want %d (one per unique block)", cs.SchedMisses, u)
	}
	if cs.SchedHits != (nCfg-1)*u {
		t.Errorf("schedule hits = %d, want %d (every unique block reused for %d retargets)",
			cs.SchedHits, (nCfg-1)*u, nCfg-1)
	}
	if cs.EstMisses != nCfg*u {
		t.Errorf("estimate misses = %d, want %d (statistics differ per config)",
			cs.EstMisses, nCfg*u)
	}
	if cs.EstHits != nCfg*(n-u) {
		t.Errorf("estimate hits = %d, want %d (duplicate blocks per config)",
			cs.EstHits, nCfg*(n-u))
	}
}

// TestCacheSurvivesRecompilation checks content addressing: compiling the
// same source twice yields distinct *cdfg.Block pointers but identical
// structural fingerprints, so the second program's annotation is served
// entirely from the schedule and estimate caches.
func TestCacheSurvivesRecompilation(t *testing.T) {
	src, err := apps.MP3Source("SW", apps.TrainMP3)
	if err != nil {
		t.Fatalf("MP3Source: %v", err)
	}
	pl := New(Options{})
	p1, err := pl.CompileCtx(context.Background(), "mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p2, err := pl.CompileCtx(context.Background(), "mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := pum.MicroBlaze()
	a1 := annotateOK(t, pl, p1, m)
	mid := pl.Stats()
	a2 := annotateOK(t, pl, p2, m)
	end := pl.Stats()

	n := uint64(numBlocks(p1))
	if got := end.SchedMisses - mid.SchedMisses; got != 0 {
		t.Errorf("recompiled program caused %d schedule misses, want 0", got)
	}
	if got := end.EstHits - mid.EstHits; got != n {
		t.Errorf("recompiled program estimate hits = %d, want %d", got, n)
	}
	// The two programs' block sets are disjoint pointers, but per-block
	// estimates must agree pairwise (same function/block order).
	for i, fn := range p1.Funcs {
		fn2 := p2.Funcs[i]
		if fn.Name != fn2.Name || len(fn.Blocks) != len(fn2.Blocks) {
			t.Fatalf("function layout mismatch at %d: %s vs %s", i, fn.Name, fn2.Name)
		}
	}
	sameEstimates(t, "recompiled", a1.Table, a2.Table)
}

// TestPipelineSimulateMatchesDirect checks the timed TLM driven through
// the pipeline's cached annotation gives the same simulated end time,
// per-PE cycles and outputs as tlm.Run fed uncached estimate tables.
func TestPipelineSimulateMatchesDirect(t *testing.T) {
	cc := pum.CacheCfg{ISize: 8192, DSize: 4096}
	d, err := apps.MP3Design("SW+1", apps.TrainMP3, pum.MicroBlaze(), cc)
	if err != nil {
		t.Fatalf("MP3Design: %v", err)
	}
	pl := New(Options{})
	got, err := pl.RunTimed(d)
	if err != nil {
		t.Fatalf("pipeline RunTimed: %v", err)
	}
	d2, err := apps.MP3Design("SW+1", apps.TrainMP3, pum.MicroBlaze(), cc)
	if err != nil {
		t.Fatalf("MP3Design: %v", err)
	}
	delays := make(map[string][]float64, len(d2.PEs))
	for _, pe := range d2.PEs {
		tab, err := core.EstimateBlocksCtx(context.Background(), d2.Program, pe.PUM, core.FullDetail, core.EstOptions{})
		if err != nil {
			t.Fatalf("EstimateBlocksCtx %s: %v", pe.Name, err)
		}
		delays[pe.Name] = tab.Totals()
	}
	want, err := tlm.Run(d2, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Delays: delays})
	if err != nil {
		t.Fatalf("direct tlm.Run: %v", err)
	}
	if got.EndPs != want.EndPs {
		t.Errorf("simulated end time %d != direct %d", got.EndPs, want.EndPs)
	}
	if !maps.Equal(got.CyclesByPE, want.CyclesByPE) {
		t.Errorf("per-PE cycles %v != direct %v", got.CyclesByPE, want.CyclesByPE)
	}
	for pe, out := range want.OutByPE {
		g := got.OutByPE[pe]
		if len(g) != len(out) {
			t.Fatalf("PE %s: %d outputs != direct %d", pe, len(g), len(out))
		}
		for i := range out {
			if g[i] != out[i] {
				t.Fatalf("PE %s out[%d]: %d != direct %d", pe, i, g[i], out[i])
			}
		}
	}
}

// TestSimulateUsesPipelineDetail: a timed Simulate without delay tables
// annotates at the pipeline's detail, so it equals RunTimed on every PE
// and on the end time.
func TestSimulateUsesPipelineDetail(t *testing.T) {
	d, err := apps.MP3Design("SW", apps.MP3Config{Frames: 1, Seed: apps.DefaultMP3.Seed},
		pum.MicroBlaze(), pum.CacheCfg{ISize: 2048, DSize: 2048})
	if err != nil {
		t.Fatalf("MP3Design: %v", err)
	}
	pl := New(Options{})
	got, err := pl.SimulateCtx(context.Background(), d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	want, err := pl.RunTimed(d)
	if err != nil {
		t.Fatalf("RunTimed: %v", err)
	}
	if !maps.Equal(got.CyclesByPE, want.CyclesByPE) || got.EndPs != want.EndPs {
		t.Fatalf("Simulate gave cycles %v end %d, RunTimed cycles %v end %d",
			got.CyclesByPE, got.EndPs, want.CyclesByPE, want.EndPs)
	}
}

// TestStrictDesignPaths: under Options.Strict, a design whose processor
// model lacks an op class the program uses fails with one annotate-stage
// error through every annotation path — AnnotateCtx, DelaysCtx,
// SimulateCtx and RunTimed.
func TestStrictDesignPaths(t *testing.T) {
	pl := New(Options{Strict: true})
	prog, err := pl.CompileCtx(context.Background(), "mul.c", `
int a[8];
void main() {
  int i; int s;
  s = 1;
  for (i = 0; i < 8; i++) s = s * a[i] + i;
  out(s);
}`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	gap := pum.MicroBlaze()
	delete(gap.Ops, cdfg.ClassMul)
	d := &platform.Design{
		Name:    "mul",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs:     []*platform.PE{{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: gap}},
	}
	ctx := context.Background()
	_, annoErr := pl.AnnotateCtx(ctx, prog, gap)
	_, _, delaysErr := pl.DelaysCtx(ctx, d)
	_, simErr := pl.SimulateCtx(ctx, d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
	_, timedErr := pl.RunTimed(d)
	var want diag.Diagnostic
	if !errors.As(annoErr, &want) || want.Stage != diag.StageAnnotate {
		t.Fatalf("AnnotateCtx: want an annotate-stage diagnostic, got %v", annoErr)
	}
	for name, err := range map[string]error{"DelaysCtx": delaysErr, "SimulateCtx": simErr, "RunTimed": timedErr} {
		var got diag.Diagnostic
		if !errors.As(err, &got) || got.Stage != want.Stage || got.Error() != want.Error() {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
}
