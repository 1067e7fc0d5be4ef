package rtl

import (
	"context"
	"testing"

	"ese/internal/apps"
	"ese/internal/branch"
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

// runPass runs main of isa to completion as one pass with one board lane
// of model per configuration, and returns the pass.
func runPass(t *testing.T, isa *iss.Program, model *pum.PUM, cfgs ...pum.CacheCfg) *pass {
	t.Helper()
	m := iss.NewMachine(isa)
	ps, err := newPass(context.Background(), m, model.Branch.Predictor, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range cfgs {
		ps.addLane(timingOf(model), cache.BoardConfig(cc.ISize), cache.BoardConfig(cc.DSize))
	}
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := ps.run(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// refCPU is the reference the pass is checked against: one board
// configuration, stepped and charged one instruction at a time by a loop
// written apart from the pass's. segs holds the cycles charged in each
// segment closed by cut.
type refCPU struct {
	m      *iss.Machine
	ic, dc *cache.Cache
	bp     branch.Stats
	tm     timing
	cycles uint64
	segs   []uint64
	cutAt  uint64
}

// newRefCPU prepares a reference CPU of model's datasheet with real caches
// of the given organizations over isa.
func newRefCPU(t *testing.T, isa *iss.Program, model *pum.PUM, ic, dc cache.Config) *refCPU {
	t.Helper()
	pred, err := predictorFor(model.Branch.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	return &refCPU{m: iss.NewMachine(isa), ic: cache.New(ic), dc: cache.New(dc), bp: branch.Stats{P: pred}, tm: timingOf(model)}
}

// run runs entry to completion, charging the fill and then every retired
// instruction.
func (c *refCPU) run(entry string) error {
	if err := c.m.Start(entry); err != nil {
		return err
	}
	access := func(cc *cache.Cache, addr uint32) uint64 {
		if !cc.Enabled() {
			return c.tm.uncachedLat
		}
		if !cc.Access(addr) {
			return c.tm.missLat
		}
		return 0
	}
	c.cycles = c.tm.fill
	var tr iss.Trace
	for !c.m.Done() {
		if err := c.m.Step(&tr); err != nil {
			return err
		}
		c.cycles += c.tm.classCost[tr.Class] + access(c.ic, iss.PCAddr(tr.PC))
		for _, a := range tr.DAddrs {
			c.cycles += access(c.dc, a)
		}
		if tr.Branch && c.bp.Resolve(iss.PCAddr(tr.PC), tr.Taken) {
			c.cycles += c.tm.brPenalty
		}
	}
	return nil
}

// cut closes the current segment.
func (c *refCPU) cut() {
	c.segs = append(c.segs, c.cycles-c.cutAt)
	c.cutAt = c.cycles
}

// runRefCPU runs main of isa to completion on a reference CPU of model's
// datasheet with real caches of the given organizations.
func runRefCPU(t *testing.T, isa *iss.Program, model *pum.PUM, ic, dc cache.Config) *refCPU {
	t.Helper()
	c := newRefCPU(t, isa, model, ic, dc)
	if err := c.run("main"); err != nil {
		t.Fatal(err)
	}
	return c
}

// mem is the reference CPU's cache statistics in PUM form: an absent side
// has hit rate 0 and pays the uncached latency.
func (c *refCPU) mem() pum.MemStats {
	st := pum.MemStats{IMissPenalty: float64(c.tm.uncachedLat), DMissPenalty: float64(c.tm.uncachedLat)}
	if c.ic.Enabled() {
		st.IMissPenalty, st.IHitRate = float64(c.tm.missLat), c.ic.HitRate()
	}
	if c.dc.Enabled() {
		st.DMissPenalty, st.DHitRate = float64(c.tm.missLat), c.dc.HitRate()
	}
	return st
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
	ps := runPass(t, isa, pum.MicroBlaze(), pum.CacheCfg{})
	// Tiny program: pipeline fill (2) + per-instruction costs with the
	// uncached fetch latency (8) on each instruction.
	steps, cycles := ps.m.Steps, ps.take(0)
	min := 2 + steps*(1+8)
	if cycles < min {
		t.Fatalf("cycles %d below uncached floor %d (steps=%d)", cycles, min, steps)
	}
}

func TestCPUCachedFasterThanUncached(t *testing.T) {
	_, isa := generate(t, loopSrc)
	ps := runPass(t, isa, pum.MicroBlaze(), pum.CacheCfg{}, pum.CacheCfg{ISize: 8192, DSize: 8192})
	if un, ca := ps.take(0), ps.take(1); ca >= un {
		t.Fatalf("cached %d >= uncached %d", ca, un)
	}
	if hr := ps.lanes[1].ic.HitRate(); hr < 0.95 {
		t.Fatalf("i-cache hit rate %v too low for a loop", hr)
	}
}

func TestCPUMulDivCosts(t *testing.T) {
	_, isaAdd := generate(t, `void main() { int x = 3; int i; for (i=0;i<100;i++) x = x + 7; out(x); }`)
	_, isaDiv := generate(t, `void main() { int x = 3; int i; for (i=0;i<100;i++) x = x / 7 + 900; out(x); }`)
	cc := pum.CacheCfg{ISize: 32768, DSize: 32768}
	add := runPass(t, isaAdd, pum.MicroBlaze(), cc).take(0)
	div := runPass(t, isaDiv, pum.MicroBlaze(), cc).take(0)
	// 100 divides at 32 cycles each must dominate.
	if div < add+100*31-200 {
		t.Fatalf("div loop %d vs add loop %d: divide cost missing", div, add)
	}
}

func TestCPUBranchPredictorCounts(t *testing.T) {
	_, isa := generate(t, loopSrc)
	ps := runPass(t, isa, pum.MicroBlaze(), pum.CacheCfg{ISize: 8192, DSize: 8192})
	if ps.bp.Branches == 0 {
		t.Fatal("no branches resolved")
	}
	// Static not-taken on backward loop branches: high miss rate.
	if ps.bp.MissRate() < 0.5 {
		t.Fatalf("static-NT miss rate %v suspiciously low for loops", ps.bp.MissRate())
	}
}

func TestCPUDeterministic(t *testing.T) {
	_, isa := generate(t, loopSrc)
	cc := pum.CacheCfg{ISize: 2048, DSize: 2048}
	a := runPass(t, isa, pum.MicroBlaze(), cc).take(0)
	b := runPass(t, isa, pum.MicroBlaze(), cc).take(0)
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
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
// through the full board (kernel + bus) must give exactly the reference
// CPU's cycles — the kernel integration adds no timing.
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
	cpu := runRefCPU(t, isa, d.PEs[0].PUM,
		cache.Config{Size: cc.ISize, LineBytes: 16, Assoc: 2},
		cache.Config{Size: cc.DSize, LineBytes: 16, Assoc: 2})
	if board.PEs["mb"].Cycles != cpu.cycles {
		t.Fatalf("board %d != standalone %d", board.PEs["mb"].Cycles, cpu.cycles)
	}
	if board.EndCycles(100_000_000) != cpu.cycles {
		t.Fatalf("board end %d != cpu cycles %d", board.EndCycles(100_000_000), cpu.cycles)
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
	ps := runPass(t, isa, model, pum.CacheCfg{ISize: 8192, DSize: 8192})
	// A bimodal predictor must beat static-NT massively on loop code.
	if ps.bp.MissRate() > 0.3 {
		t.Fatalf("2bit predictor miss rate %v too high", ps.bp.MissRate())
	}
}

func TestBoardRejectsBadDesign(t *testing.T) {
	prog, _ := apps.Compile("t.c", `void main() { out(1); }`)
	d := &platform.Design{Name: "x", Program: prog, Bus: platform.DefaultBus()}
	if _, err := RunBoard(d, 0); err == nil {
		t.Fatal("expected validation error")
	}
}
