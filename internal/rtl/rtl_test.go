package rtl

import (
	"context"
	"testing"

	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
)

func generate(t *testing.T, src string) (*cdfg.Program, *iss.Program) {
	t.Helper()
	prog, err := apps.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return prog, isa
}

func newCPU(t *testing.T, isa *iss.Program, iSize, dSize int) *CPU {
	t.Helper()
	m := iss.NewMachine(isa)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPU(m, CPUConfig{
		Model:  pum.MicroBlaze(),
		ICache: cache.BoardConfig(iSize),
		DCache: cache.BoardConfig(dSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

const loopSrc = `
int a[128];
void main() {
  int i;
  int r;
  for (r = 0; r < 4; r++) {
    for (i = 0; i < 128; i++) a[i] = a[i] * 3 + i;
  }
  out(a[100]);
}`

func TestCPUTimingComponents(t *testing.T) {
	_, isa := generate(t, `void main() { out(1); }`)
	cpu := newCPU(t, isa, 0, 0)
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	// Tiny program: pipeline fill (2) + per-instruction costs with the
	// uncached fetch latency (8) on each instruction.
	steps := cpu.M.Steps
	min := 2 + steps*(1+8)
	if cpu.Cycles < min {
		t.Fatalf("cycles %d below uncached floor %d (steps=%d)", cpu.Cycles, min, steps)
	}
}

func TestCPUCachedFasterThanUncached(t *testing.T) {
	_, isa := generate(t, loopSrc)
	un := newCPU(t, isa, 0, 0)
	if err := un.Run(0); err != nil {
		t.Fatal(err)
	}
	ca := newCPU(t, isa, 8192, 8192)
	if err := ca.Run(0); err != nil {
		t.Fatal(err)
	}
	if ca.Cycles >= un.Cycles {
		t.Fatalf("cached %d >= uncached %d", ca.Cycles, un.Cycles)
	}
	if ca.IC.HitRate() < 0.95 {
		t.Fatalf("i-cache hit rate %v too low for a loop", ca.IC.HitRate())
	}
}

func TestCPUMulDivCosts(t *testing.T) {
	_, isaAdd := generate(t, `void main() { int x = 3; int i; for (i=0;i<100;i++) x = x + 7; out(x); }`)
	_, isaDiv := generate(t, `void main() { int x = 3; int i; for (i=0;i<100;i++) x = x / 7 + 900; out(x); }`)
	add := newCPU(t, isaAdd, 32768, 32768)
	if err := add.Run(0); err != nil {
		t.Fatal(err)
	}
	div := newCPU(t, isaDiv, 32768, 32768)
	if err := div.Run(0); err != nil {
		t.Fatal(err)
	}
	// 100 divides at 32 cycles each must dominate.
	if div.Cycles < add.Cycles+100*31-200 {
		t.Fatalf("div loop %d vs add loop %d: divide cost missing", div.Cycles, add.Cycles)
	}
}

func TestCPUBranchPredictorCounts(t *testing.T) {
	_, isa := generate(t, loopSrc)
	cpu := newCPU(t, isa, 8192, 8192)
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if cpu.BP.Branches == 0 {
		t.Fatal("no branches resolved")
	}
	// Static not-taken on backward loop branches: high miss rate.
	if cpu.BP.MissRate() < 0.5 {
		t.Fatalf("static-NT miss rate %v suspiciously low for loops", cpu.BP.MissRate())
	}
}

func TestCPUDeterministic(t *testing.T) {
	_, isa := generate(t, loopSrc)
	a := newCPU(t, isa, 2048, 2048)
	if err := a.Run(0); err != nil {
		t.Fatal(err)
	}
	b := newCPU(t, isa, 2048, 2048)
	if err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestHWDelaysAreExactSchedules(t *testing.T) {
	prog, err := apps.Compile("t.c", `
int a[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) a[i] = a[i] * 2 + 1;
  out(a[3]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	model := pum.CustomHW("hw", 100_000_000)
	hw := NewHW(prog, model)
	tab, err := core.EstimateBlocksCtx(context.Background(), prog, model, core.Detail{}, core.EstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := tab.Estimates()
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			if hw.Delay(b) != float64(est[0].Sched) {
				t.Fatalf("HW delay for bb%d = %v, schedule = %d", b.ID, hw.Delay(b), est[0].Sched)
			}
			est = est[1:]
		}
	}
}

// TestBoardMatchesStandaloneCPUForSWDesign: a single-processor design run
// through the full board (kernel + bus) must give exactly the standalone
// CPU model's cycles — the kernel integration adds no timing.
func TestBoardMatchesStandaloneCPUForSWDesign(t *testing.T) {
	cfg := apps.MP3Config{Frames: 1, Seed: 9}
	cc := pum.CacheCfg{ISize: 8192, DSize: 4096}
	d, err := apps.MP3Design("SW", cfg, pum.MicroBlaze(), cc)
	if err != nil {
		t.Fatal(err)
	}
	board, err := RunBoard(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := iss.Generate(d.Program)
	if err != nil {
		t.Fatal(err)
	}
	m := iss.NewMachine(isa)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPU(m, CPUConfig{
		Model:  d.PEs[0].PUM,
		ICache: cache.Config{Size: cc.ISize, LineBytes: 16, Assoc: 2},
		DCache: cache.Config{Size: cc.DSize, LineBytes: 16, Assoc: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if board.PEs["mb"].Cycles != cpu.Cycles {
		t.Fatalf("board %d != standalone %d", board.PEs["mb"].Cycles, cpu.Cycles)
	}
	if board.EndCycles(100_000_000) != cpu.Cycles {
		t.Fatalf("board end %d != cpu cycles %d", board.EndCycles(100_000_000), cpu.Cycles)
	}
}

func TestBoardMultiPEOverlap(t *testing.T) {
	// On SW+4 the end-to-end time must be less than the sum of all PE busy
	// cycles (they overlap) but at least the SW PE's own busy time.
	cfg := apps.MP3Config{Frames: 1, Seed: 5}
	d, err := apps.MP3Design("SW+4", cfg, pum.MicroBlaze(), pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBoard(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := res.EndCycles(100_000_000)
	var sum uint64
	for _, pe := range res.PEs {
		sum += pe.Cycles
		if pe.Steps == 0 {
			t.Fatalf("PE %s never executed", pe.Name)
		}
	}
	if end >= sum {
		t.Fatalf("no overlap: end %d >= sum %d", end, sum)
	}
	if end < res.PEs["mb"].Cycles {
		t.Fatalf("end %d < mb busy %d", end, res.PEs["mb"].Cycles)
	}
}

func TestPredictorSelection(t *testing.T) {
	model := pum.MicroBlaze()
	model.Branch.Predictor = "2bit"
	_, isa := generate(t, loopSrc)
	m := iss.NewMachine(isa)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPU(m, CPUConfig{Model: model, ICache: cache.BoardConfig(8192), DCache: cache.BoardConfig(8192)})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	// A bimodal predictor must beat static-NT massively on loop code.
	if cpu.BP.MissRate() > 0.3 {
		t.Fatalf("2bit predictor miss rate %v too high", cpu.BP.MissRate())
	}
}

func TestBoardRejectsBadDesign(t *testing.T) {
	prog, _ := apps.Compile("t.c", `void main() { out(1); }`)
	d := &platform.Design{Name: "x", Program: prog, Bus: platform.DefaultBus()}
	if _, err := RunBoard(d, 0); err == nil {
		t.Fatal("expected validation error")
	}
}
