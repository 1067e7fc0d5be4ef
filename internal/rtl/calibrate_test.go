package rtl

import (
	"context"
	"errors"
	"testing"

	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/iss"
	"ese/internal/pum"
)

// Bugfix regression: calibrating with only uncached configurations used to
// silently return an uncalibrated clone of the base model; it must fail
// with ErrUncalibrated so callers know nothing was measured — before
// anything executes, so even a missing entry is not reached.
func TestCalibrateAllUncachedIsError(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	_, err := Measure(context.Background(), pum.MicroBlaze(), prog, "nope", []pum.CacheCfg{{ISize: 0, DSize: 0}}, 0)
	if !errors.Is(err, ErrUncalibrated) {
		t.Fatalf("want ErrUncalibrated, got %v", err)
	}
	_, err = Measure(context.Background(), pum.MicroBlaze(), prog, "main", nil, 0)
	if !errors.Is(err, ErrUncalibrated) {
		t.Fatalf("empty cfgs: want ErrUncalibrated, got %v", err)
	}
}

// Bugfix regression: a mixed geometry must record hit rate 0 for the
// absent side (every access there pays the external latency on the board)
// and real statistics for the present side. Pre-fix the absent side was
// recorded with the idle-cache HitRate default of 1.0, making the
// estimator charge nothing for a path the board charges ExtLatency on.
func TestCalibrateMixedGeometry(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	cfgs := []pum.CacheCfg{{ISize: 0, DSize: 4096}, {ISize: 4096, DSize: 0}}
	rep, err := Measure(context.Background(), pum.MicroBlaze(), prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats) != 2 {
		t.Fatalf("report has %d stats, want 2", len(rep.Stats))
	}
	dOnly := rep.Stats[0].Mem
	if dOnly.IHitRate != 0 {
		t.Errorf("{0,4096}: IHitRate = %v, want 0 (absent side pays external latency)", dOnly.IHitRate)
	}
	if dOnly.DHitRate <= 0.5 {
		t.Errorf("{0,4096}: DHitRate = %v, want measured rate > 0.5", dOnly.DHitRate)
	}
	iOnly := rep.Stats[1].Mem
	if iOnly.DHitRate != 0 {
		t.Errorf("{4096,0}: DHitRate = %v, want 0", iOnly.DHitRate)
	}
	if iOnly.IHitRate <= 0.5 {
		t.Errorf("{4096,0}: IHitRate = %v, want measured rate > 0.5", iOnly.IHitRate)
	}
}

// The report holds one snapshot per cached configuration, in cfgs order
// with the uncached one skipped, and the one branch misprediction ratio
// and step count of the run.
func TestCalibrateBranchConfigIndependent(t *testing.T) {
	prog, _ := generate(t, loopSrc)
	cfgs := []pum.CacheCfg{
		{ISize: 2048, DSize: 2048},
		{ISize: 0, DSize: 0},
		{ISize: 16384, DSize: 16384},
		{ISize: 0, DSize: 4096},
	}
	rep, err := Measure(context.Background(), pum.MicroBlaze(), prog, "main", cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BranchMiss <= 0 || rep.BranchMiss >= 1 {
		t.Fatalf("branch miss %v outside (0,1)", rep.BranchMiss)
	}
	if rep.Steps == 0 {
		t.Fatal("report counts no steps")
	}
	want := []pum.CacheCfg{cfgs[0], cfgs[2], cfgs[3]}
	if len(rep.Stats) != len(want) {
		t.Fatalf("report has %d stats, want %d (one per cached config)", len(rep.Stats), len(want))
	}
	for i, cs := range rep.Stats {
		if cs.Cfg != want[i] {
			t.Errorf("stats %d measured %v, want %v", i, cs.Cfg, want[i])
		}
	}
}

// A cached side with no accesses at all is the degenerate case: a program
// with no data traffic never touches the d-cache, and its snapshot must
// still validate (idle HitRate default, not NaN).
func TestCalibrateSnapshotsValidate(t *testing.T) {
	prog, _ := generate(t, `void main() { out(7); }`)
	rep, err := Measure(context.Background(), pum.MicroBlaze(), prog, "main", pum.StandardCacheConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range rep.Stats {
		if err := cs.Mem.Validate(); err != nil {
			t.Errorf("%v: %v", cs.Cfg, err)
		}
	}
}

// The one pass against a reference CPU per cached configuration, each
// re-executing the program. Every snapshot, the branch misprediction ratio
// and the step count must be exactly what each reference run observes.
func TestMeasureMatchesPerConfigCPU(t *testing.T) {
	jpeg, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.TrainJPEG))
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := generate(t, loopSrc)
	cfgs := append(append([]pum.CacheCfg(nil), pum.StandardCacheConfigs...),
		pum.CacheCfg{ISize: 0, DSize: 4096}, pum.CacheCfg{ISize: 4096, DSize: 0})
	for name, prog := range map[string]*cdfg.Program{"loop": loop, "jpeg": jpeg} {
		rep, err := Measure(context.Background(), pum.MicroBlaze(), prog, "main", cfgs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Stats) != len(cfgs)-1 {
			t.Fatalf("%s: report has %d stats, want %d (all but the uncached config)", name, len(rep.Stats), len(cfgs)-1)
		}
		isa, err := iss.Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		for i, cs := range rep.Stats {
			if cs.Cfg != cfgs[i+1] { // cfgs[0] is the uncached {0,0}
				t.Fatalf("%s: stats %d measured %v, want %v", name, i, cs.Cfg, cfgs[i+1])
			}
			cpu := runRefCPU(t, isa, pum.MicroBlaze(), cache.BoardConfig(cs.Cfg.ISize), cache.BoardConfig(cs.Cfg.DSize))
			if ref := cpu.mem(); cs.Mem != ref {
				t.Errorf("%s %v: one pass measured %+v, reference CPU %+v", name, cs.Cfg, cs.Mem, ref)
			}
			if rep.BranchMiss != cpu.bp.MissRate() || rep.Steps != cpu.m.Steps {
				t.Errorf("%s %v: one pass miss %v over %d steps, reference CPU %v over %d",
					name, cs.Cfg, rep.BranchMiss, rep.Steps, cpu.bp.MissRate(), cpu.m.Steps)
			}
		}
	}
}
