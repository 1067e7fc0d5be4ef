package profile

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/engine"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtos"
	"ese/internal/tlm"
)

func compile(t *testing.T, src string) *cdfg.Program {
	t.Helper()
	f, err := cfront.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u, err := cfront.Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := cdfg.Lower(u)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return p
}

// profiledRun simulates d timed and profiled under kind through a fresh
// pipeline and returns the result with each PE's estimates, annotated by
// the same pipeline.
func profiledRun(t *testing.T, d *platform.Design, kind interp.EngineKind) (*tlm.Result, map[string][]core.Estimate) {
	t.Helper()
	pl := engine.New(engine.Options{})
	res, err := pl.Simulate(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Profile: true, Engine: kind})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	est := make(map[string][]core.Estimate, len(d.PEs))
	for _, pe := range d.PEs {
		a, err := pl.AnnotateCtx(context.Background(), d.Program, pe.PUM)
		if err != nil {
			t.Fatalf("AnnotateCtx %s: %v", pe.Name, err)
		}
		est[pe.Name] = a.Table.Estimates()
	}
	return res, est
}

const pingPongSrc = `
int buf[8];
int res[8];
void main() {
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    for (i = 0; i < 8; i++) buf[i] = r * 10 + i;
    send(0, buf, 8);
    recv(1, res, 8);
    out(res[0]);
  }
}
void worker() {
  int w[8];
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    recv(0, w, 8);
    for (i = 0; i < 8; i++) w[i] = w[i] * 2;
    send(1, w, 8);
  }
}
`

// TestReportReconcilesWithSimulation is the tentpole invariant: the
// profiler's per-process cycle totals equal the timed TLM's simulated
// cycle counters bit-for-bit, and each row's term columns sum exactly to
// its cycle column.
func TestReportReconcilesWithSimulation(t *testing.T) {
	prog := compile(t, pingPongSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	hw := pum.CustomHW("acc", 100_000_000)
	d := &platform.Design{
		Name:    "pingpong",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb},
			{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: hw},
		},
	}
	res, est := profiledRun(t, d, interp.EngineAuto)
	r, err := Build(d.Name, prog, res.BlockCountsByPE, est)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("empty report")
	}
	var total float64
	for key, sub := range r.ByPE {
		if got, want := sub, float64(res.CyclesByPE[key]); got != want {
			t.Errorf("ByPE[%q] = %v, want exactly %v (simulated)", key, got, want)
		}
		total += sub
	}
	if r.TotalCycles != total {
		t.Errorf("TotalCycles = %v, want %v", r.TotalCycles, total)
	}
	for _, row := range r.Rows {
		if sum := row.Sched + row.Branch + row.IMem + row.DMem + row.Round; sum != row.Cycles {
			t.Errorf("%s %s/bb%d: terms sum %v != cycles %v", row.PE, row.Func, row.Block, sum, row.Cycles)
		}
		if row.Cycles != float64(row.Count)*row.PerExec {
			t.Errorf("%s %s/bb%d: cycles %v != count*perexec", row.PE, row.Func, row.Block, row.Cycles)
		}
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Cycles > r.Rows[i-1].Cycles {
			t.Fatalf("rows not sorted by cycles descending at %d", i)
		}
	}
}

// TestReportRTOSTaskKeys checks the "pe/task" fallback join and the
// reconciliation on an RTOS-arbitrated PE.
func TestReportRTOSTaskKeys(t *testing.T) {
	prog := compile(t, pingPongSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &platform.Design{
		Name:    "rtos",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{{
			Name: "cpu", Kind: platform.Processor, PUM: mb,
			RTOS: rtos.Config{Policy: rtos.Cooperative},
			Tasks: []platform.SWTask{
				{Name: "t0", Entry: "main"},
				{Name: "t1", Entry: "worker"},
			},
		}},
	}
	res, est := profiledRun(t, d, interp.EngineAuto)
	r, err := Build(d.Name, prog, res.BlockCountsByPE, est)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, key := range []string{"cpu/t0", "cpu/t1"} {
		if got, want := r.ByPE[key], float64(res.CyclesByPE[key]); got != want {
			t.Errorf("ByPE[%q] = %v, want exactly %v", key, got, want)
		}
	}
	if got, want := r.TotalCycles, float64(res.CyclesByPE["cpu"]); got != want {
		t.Errorf("TotalCycles = %v, want PE sum %v", got, want)
	}
}

func TestReportTextAndJSON(t *testing.T) {
	prog := compile(t, `
int acc;
void main() {
  int i;
  for (i = 0; i < 10; i++) acc = acc + i;
  out(acc);
}
`)
	mb := pum.MicroBlaze()
	a, err := engine.New(engine.Options{}).AnnotateCtx(context.Background(), prog, mb)
	if err != nil {
		t.Fatalf("AnnotateCtx: %v", err)
	}
	// Functional profile: run the interpreter directly (the eseest path).
	counts := map[string]map[*cdfg.Block]uint64{"microblaze": countRun(t, prog)}
	r, err := Build("", prog, counts, map[string][]core.Estimate{"microblaze": a.Table.Estimates()})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	txt := r.Text(2)
	if !strings.Contains(txt, "cycle attribution") || !strings.Contains(txt, "main/bb") {
		t.Fatalf("unexpected text report:\n%s", txt)
	}
	if !strings.Contains(txt, "more blocks") {
		t.Fatalf("top-N truncation missing:\n%s", txt)
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.TotalCycles != r.TotalCycles || len(back.Rows) != len(r.Rows) {
		t.Fatal("JSON round-trip mismatch")
	}
	// The loop body must dominate: its row comes first and runs 10 times.
	if r.Rows[0].Count < 10 {
		t.Errorf("top row count = %d, want the loop body (>= 10)", r.Rows[0].Count)
	}
}

func countRun(t *testing.T, prog *cdfg.Program) map[*cdfg.Block]uint64 {
	t.Helper()
	m := interp.New(prog)
	m.EnableProfile()
	if err := m.Run("main"); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return m.BlockCounts
}

// TestReportReconcilesUnderBothEngines pins the PR 3 invariant to each
// execution engine explicitly: under the tree-walker AND the compiled
// flat engine, the profiler totals must equal the simulated per-PE cycle
// counters bit-for-bit.
func TestReportReconcilesUnderBothEngines(t *testing.T) {
	prog := compile(t, pingPongSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	hw := pum.CustomHW("acc", 100_000_000)
	for _, kind := range []interp.EngineKind{interp.EngineTree, interp.EngineCompiled} {
		d := &platform.Design{
			Name:    "pingpong-" + kind.String(),
			Program: prog,
			Bus:     platform.DefaultBus(),
			PEs: []*platform.PE{
				{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb},
				{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: hw},
			},
		}
		res, est := profiledRun(t, d, kind)
		r, err := Build(d.Name, prog, res.BlockCountsByPE, est)
		if err != nil {
			t.Fatalf("%v: Build: %v", kind, err)
		}
		for _, key := range []string{"cpu", "acc"} {
			if got, want := r.ByPE[key], float64(res.CyclesByPE[key]); got != want {
				t.Errorf("%v: ByPE[%q] = %v, want exactly %v (simulated)", kind, key, got, want)
			}
		}
	}
}
