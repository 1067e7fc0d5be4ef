package engine

import (
	"fmt"
	"runtime"
	"testing"

	"ese/internal/annotate"
	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// testProgram compiles the MP3 SW workload through a throwaway pipeline.
func testProgram(t *testing.T) *cdfg.Program {
	t.Helper()
	src, err := apps.MP3Source("SW", apps.TrainMP3)
	if err != nil {
		t.Fatalf("MP3Source: %v", err)
	}
	prog, err := New(Options{}).Compile("mp3.c", src)
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
			ref := annotate.AnnotateWith(prog, m, core.FullDetail, core.EstOptions{Workers: 1})
			for variant, pl := range map[string]*Pipeline{
				"parallel":         New(Options{NoCache: true}),
				"parallel+cache":   New(Options{}),
				"serial+cache":     New(Options{Workers: 1}),
				"explicit-workers": New(Options{Workers: 4}),
			} {
				label := fmt.Sprintf("gomaxprocs=%d/%s/%s", gmp, name, variant)
				a := pl.Annotate(prog, m)
				sameEstimates(t, label, ref.Table, a.Table)
				if want, got := ref.EmitTimedC(), a.EmitTimedC(); want != got {
					t.Fatalf("%s: EmitTimedC differs from serial reference", label)
				}
				// Annotating again must be fully served from the cache and
				// still identical.
				a2 := pl.Annotate(prog, m)
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
		pl.Annotate(prog, m)
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
	p1, err := pl.Compile("mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p2, err := pl.Compile("mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := pum.MicroBlaze()
	a1 := pl.Annotate(p1, m)
	mid := pl.Stats()
	a2 := pl.Annotate(p2, m)
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
// the pipeline's precomputed-delay path gives the same simulated end time
// and outputs as the legacy in-simulator annotation path.
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
	want, err := tlm.RunTimed(d2, 0)
	if err != nil {
		t.Fatalf("legacy RunTimed: %v", err)
	}
	if got.EndPs != want.EndPs {
		t.Errorf("simulated end time %d != legacy %d", got.EndPs, want.EndPs)
	}
	for pe, out := range want.OutByPE {
		g := got.OutByPE[pe]
		if len(g) != len(out) {
			t.Fatalf("PE %s: %d outputs != legacy %d", pe, len(g), len(out))
		}
		for i := range out {
			if g[i] != out[i] {
				t.Fatalf("PE %s out[%d]: %d != legacy %d", pe, i, g[i], out[i])
			}
		}
	}
}
