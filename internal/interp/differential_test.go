package interp

import (
	"context"
	"maps"
	"slices"
	"testing"

	"ese/internal/cdfg"
)

// diffPrograms exercise every opcode, nested calls, recursion, arrays
// (local, global, parameters), globals, channels-free control flow, and the
// out() stream.
var diffPrograms = map[string]string{
	"arith": `
void main() {
  int a = 40; int b = 6;
  out(a + b); out(a - b); out(a * b); out(a / b); out(a % b);
  out(a & b); out(a | b); out(a ^ b); out(a << 2); out(a >> 2);
  out(-a); out(~a);
  out(a == b); out(a != b); out(a < b); out(a <= b); out(a > b); out(a >= b);
  out(b / 0); out(b % 0);
}`,
	"loops": `
int acc;
void main() {
  int i; int j;
  for (i = 0; i < 50; i++) {
    for (j = 0; j < i; j++) {
      if ((i ^ j) & 1) acc += i * j;
      else acc -= j;
    }
  }
  out(acc);
}`,
	"calls": `
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int sum(int a[], int n) {
  int s = 0; int i;
  for (i = 0; i < n; i++) s += a[i];
  return s;
}
int tab[8] = {3, 1, 4, 1, 5, 9, 2, 6};
void main() {
  int local[4];
  int i;
  for (i = 0; i < 4; i++) local[i] = fib(i + 6);
  out(sum(local, 4));
  out(sum(tab, 8));
  out(fib(15));
}`,
	"globals": `
int g = 7;
int garr[5];
void bump(int k) { g += k; garr[k % 5] = g; }
void main() {
  int i;
  for (i = 0; i < 20; i++) bump(i);
  out(g);
  for (i = 0; i < 5; i++) out(garr[i]);
}`,
	"shadow": `
int x = 1;
int twice(int x) { return x * 2; }
void main() {
  int local[3];
  local[0] = twice(x);
  local[1] = twice(local[0]);
  local[2] = x;
  out(local[0] + local[1] + local[2]);
}`,
}

// engines builds both engines for one program; the compiled build must
// succeed for front-end-generated IR.
func engines(t *testing.T, prog *cdfg.Program) (tree, comp Engine) {
	t.Helper()
	tree, err := NewEngine(prog, EngineTree)
	if err != nil {
		t.Fatalf("tree engine: %v", err)
	}
	comp, err = NewEngine(prog, EngineCompiled)
	if err != nil {
		t.Fatalf("compiled engine: %v", err)
	}
	if comp.Kind() != EngineCompiled {
		t.Fatalf("expected compiled engine, got %v", comp.Kind())
	}
	return tree, comp
}

// compare runs both engines through run() and requires identical Out,
// Steps, block counts and error text.
func compareEngines(t *testing.T, tree, comp Engine, run func(Engine) error) {
	t.Helper()
	errT := run(tree)
	errC := run(comp)
	if (errT == nil) != (errC == nil) || (errT != nil && errT.Error() != errC.Error()) {
		t.Fatalf("error mismatch:\n  tree:     %v\n  compiled: %v", errT, errC)
	}
	if !slices.Equal(tree.OutStream(), comp.OutStream()) {
		t.Fatalf("out mismatch:\n  tree:     %v\n  compiled: %v", tree.OutStream(), comp.OutStream())
	}
	if tree.StepCount() != comp.StepCount() {
		t.Fatalf("steps mismatch: tree %d, compiled %d", tree.StepCount(), comp.StepCount())
	}
	if !maps.Equal(tree.BlockCountsMap(), comp.BlockCountsMap()) {
		t.Fatalf("block count mismatch:\n  tree:     %v\n  compiled: %v",
			tree.BlockCountsMap(), comp.BlockCountsMap())
	}
}

func TestEnginesDifferential(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			tree, comp := engines(t, prog)
			compareEngines(t, tree, comp, func(e Engine) error {
				e.EnableProfile()
				e.SetLimit(50_000_000)
				return e.Run("main")
			})
		})
	}
}

// TestEnginesDifferentialPendingDelay checks the fused-delay path: both
// engines must pool bit-identical cycle totals in the same accumulation
// order.
func TestEnginesDifferentialPendingDelay(t *testing.T) {
	prog := compile(t, diffPrograms["loops"])
	// Synthesize per-block delays with enough variety to expose ordering
	// differences in float accumulation.
	dm := make([]float64, prog.NumBlocks())
	for i := range dm {
		dm[i] = 0.1*float64(i%7) + float64(i%3)
	}
	tree, comp := engines(t, prog)
	tree.SetDelays(dm)
	comp.SetDelays(dm)
	compareEngines(t, tree, comp, func(e Engine) error { return e.Run("main") })
	pt, pc := tree.TakePending(), comp.TakePending()
	if pt != pc {
		t.Fatalf("pending cycles mismatch: tree %v, compiled %v", pt, pc)
	}
	if pt == 0 {
		t.Fatal("expected nonzero pooled delay")
	}
	if tree.TakePending() != 0 || comp.TakePending() != 0 {
		t.Fatal("TakePending must clear the pool")
	}
}

// TestEnginesDifferentialOnDelay checks the per-block delivery mode: both
// engines must observe the same delay sequence, and an error from the hook
// must abort identically.
func TestEnginesDifferentialOnDelay(t *testing.T) {
	prog := compile(t, diffPrograms["globals"])
	var dm []float64
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			dm = append(dm, float64(b.ID+1))
		}
	}
	seq := func(e Engine) []float64 {
		var got []float64
		e.SetDelays(dm)
		e.SetOnDelay(func(d float64) error { got = append(got, d); return nil })
		if err := e.Run("main"); err != nil {
			t.Fatalf("%v: %v", e.Kind(), err)
		}
		return got
	}
	tree, comp := engines(t, prog)
	if st, sc := seq(tree), seq(comp); !slices.Equal(st, sc) {
		t.Fatalf("delay sequence mismatch: tree %d entries, compiled %d entries", len(st), len(sc))
	}
}

// TestEnginesDifferentialLimit checks that the step limit trips at the same
// point with the same error.
func TestEnginesDifferentialLimit(t *testing.T) {
	prog := compile(t, diffPrograms["loops"])
	for _, limit := range []uint64{1, 10, 100, 1000} {
		tree, comp := engines(t, prog)
		compareEngines(t, tree, comp, func(e Engine) error {
			e.SetLimit(limit)
			return e.Run("main")
		})
	}
}

// TestEnginesDifferentialCancel checks that an already-cancelled context
// aborts both engines identically (at the first block boundary).
func TestEnginesDifferentialCancel(t *testing.T) {
	prog := compile(t, diffPrograms["loops"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree, comp := engines(t, prog)
	compareEngines(t, tree, comp, func(e Engine) error {
		e.SetContext(ctx)
		return e.Run("main")
	})
	if tree.StepCount() == 0 {
		t.Fatal("expected the first block's steps to be counted before the abort")
	}
}

// TestEnginesDifferentialRuntimeErrors checks that runtime faults produce
// byte-identical error messages.
func TestEnginesDifferentialRuntimeErrors(t *testing.T) {
	faults := map[string]string{
		"oob-load":  `int tab[4]; void main() { int i = 9; out(tab[i]); }`,
		"oob-store": `int tab[4]; void main() { int i = 0 - 1; tab[i] = 3; }`,
		"no-chan":   `int buf[4]; void main() { send(0, buf, 4); }`,
		"no-main":   `void other() { out(1); }`,
	}
	for name, src := range faults {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			tree, comp := engines(t, prog)
			compareEngines(t, tree, comp, func(e Engine) error { return e.Run("main") })
		})
	}
}

// TestEnginesDifferentialChannels checks send/recv intrinsics under both
// engines with an in-test channel binding.
func TestEnginesDifferentialChannels(t *testing.T) {
	src := `
int buf[8];
void main() {
  int i;
  for (i = 0; i < 8; i++) buf[i] = i * i;
  send(2, buf, 8);
  recv(3, buf, 4);
  for (i = 0; i < 8; i++) out(buf[i]);
}`
	prog := compile(t, src)
	bind := func(e Engine) (sent *[]int32) {
		var got []int32
		e.SetChannels(
			func(ch int, data []int32) error {
				got = append(got, int32(ch))
				got = append(got, data...)
				return nil
			},
			func(ch int, buf []int32) error {
				for i := range buf {
					buf[i] = int32(ch*100 + i)
				}
				return nil
			})
		return &got
	}
	tree, comp := engines(t, prog)
	st, sc := bind(tree), bind(comp)
	compareEngines(t, tree, comp, func(e Engine) error { return e.Run("main") })
	if !slices.Equal(*st, *sc) {
		t.Fatalf("send payload mismatch:\n  tree:     %v\n  compiled: %v", *st, *sc)
	}
}

// TestCompiledReset checks that a reset machine replays identically and
// reuses its frame pool.
func TestCompiledReset(t *testing.T) {
	prog := compile(t, diffPrograms["calls"])
	e, err := NewEngine(prog, EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProfile()
	if err := e.Run("main"); err != nil {
		t.Fatal(err)
	}
	out1 := slices.Clone(e.OutStream())
	steps1 := e.StepCount()
	counts1 := maps.Clone(e.BlockCountsMap())
	e.Reset()
	if e.StepCount() != 0 || len(e.OutStream()) != 0 {
		t.Fatal("Reset did not clear run state")
	}
	if err := e.Run("main"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out1, e.OutStream()) || steps1 != e.StepCount() ||
		!maps.Equal(counts1, e.BlockCountsMap()) {
		t.Fatal("second run after Reset diverged from the first")
	}
}

// TestCompileFallbackShapes checks that IR shapes outside the flat
// encoding are rejected at compile time and that EngineAuto returns the
// same error as EngineCompiled instead of falling back to the tree-walker.
func TestCompileFallbackShapes(t *testing.T) {
	mkProg := func(mut func(fn *cdfg.Function)) *cdfg.Program {
		prog := compile(t, `void main() { out(1); }`)
		mut(prog.Funcs[0])
		return prog
	}
	cases := map[string]func(fn *cdfg.Function){
		"scalar-slot-as-array": func(fn *cdfg.Function) {
			fn.Slots = append(fn.Slots, &cdfg.Slot{Name: "x", Size: 1})
			si := len(fn.Slots) - 1
			b := fn.Blocks[0]
			b.Instrs = append([]cdfg.Instr{{
				Op: cdfg.OpLoad, Dst: cdfg.Temp(0), A: cdfg.Const(0), Arr: cdfg.SlotRef(si),
			}}, b.Instrs...)
		},
		"no-terminator": func(fn *cdfg.Function) {
			b := fn.Blocks[0]
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
		},
		"mid-block-jmp": func(fn *cdfg.Function) {
			b := fn.Blocks[0]
			b.Instrs = append([]cdfg.Instr{{Op: cdfg.OpJmp, Target: b}}, b.Instrs...)
		},
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			prog := mkProg(mut)
			if name == "no-terminator" {
				// Removing the terminator still compiles (the trap
				// instruction covers it); only assert equivalence.
				tree, _ := NewEngine(prog, EngineTree)
				comp, err := NewEngine(prog, EngineCompiled)
				if err != nil {
					t.Skipf("compile rejected: %v", err)
				}
				compareEngines(t, tree, comp, func(e Engine) error { return e.Run("main") })
				return
			}
			if _, err := Compile(prog); err == nil {
				t.Fatal("expected compile rejection")
			}
			_, compErr := NewEngine(prog, EngineCompiled)
			if compErr == nil {
				t.Fatal("compiled engine accepted a rejected shape")
			}
			if _, err := NewEngine(prog, EngineAuto); err == nil || err.Error() != compErr.Error() {
				t.Fatalf("auto engine error %v, want the compiled engine's %v", err, compErr)
			}
		})
	}
}

// TestCompileCached checks memoization on program identity.
func TestCompileCached(t *testing.T) {
	prog := compile(t, diffPrograms["arith"])
	a, err := CompileCached(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCached(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("CompileCached did not memoize on program identity")
	}
	if a.NumBlocks() != prog.NumBlocks() {
		t.Fatalf("dense numbering covers %d blocks, program has %d", a.NumBlocks(), prog.NumBlocks())
	}
}
