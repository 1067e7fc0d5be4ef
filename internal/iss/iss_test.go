package iss

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/interp"
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

func generate(t *testing.T, src string) (*cdfg.Program, *Program) {
	t.Helper()
	ir := compile(t, src)
	mp, err := Generate(ir)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ir, mp
}

// runBoth executes the program on the IR interpreter and the ISA machine
// and asserts identical out() streams — the cross-engine functional
// equivalence invariant of the repo.
func runBoth(t *testing.T, src string) (*interp.Machine, *Machine) {
	t.Helper()
	ir, mp := generate(t, src)
	im := interp.New(ir)
	im.Limit = 100_000_000
	if err := im.Run("main"); err != nil {
		t.Fatalf("interp: %v", err)
	}
	mm := NewMachine(mp)
	if err := mm.Start("main"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := mm.Run(100_000_000); err != nil {
		t.Fatalf("machine: %v", err)
	}
	if len(im.Out) != len(mm.Out) {
		t.Fatalf("out length differs: interp %v vs machine %v", im.Out, mm.Out)
	}
	for i := range im.Out {
		if im.Out[i] != mm.Out[i] {
			t.Fatalf("out[%d]: interp %d vs machine %d", i, im.Out[i], mm.Out[i])
		}
	}
	return im, mm
}

func TestMachineMatchesInterp(t *testing.T) {
	srcs := map[string]string{
		"arith": `
void main() {
  int x = 6;
  out(x * 7); out(x - 10); out(x / 4); out(x % 4); out(-x); out(~x);
  out(x << 2); out(x >> 1); out(x & 3); out(x | 9); out(x ^ 5);
  out(5 / 0); out(5 % 0);
}`,
		"globals": `
int g = 10;
int tab[4] = {1, 2, 3, 4};
void main() {
  g += tab[2];
  tab[0] = g * 2;
  out(g); out(tab[0]);
}`,
		"loops": `
void main() {
  int s = 0;
  int i;
  for (i = 0; i < 20; i++) { if (i % 3 == 0) continue; s += i; if (i > 15) break; }
  out(s);
}`,
		"calls": `
int sq(int x) { return x * x; }
int sumsq(int a[], int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += sq(a[i]);
  return s;
}
int buf[5] = {1, 2, 3, 4, 5};
void main() {
  out(sumsq(buf, 5));
  int loc[3] = {7, 8, 9};
  out(sumsq(loc, 3));
}`,
		"recursion": `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
void main() { out(fib(15)); }`,
		"localarrays": `
void fill(int a[], int n, int k) { int i; for (i = 0; i < n; i++) a[i] = k + i; }
void main() {
  int a[8];
  int b[8];
  fill(a, 8, 100);
  fill(b, 8, 200);
  int i; int s = 0;
  for (i = 0; i < 8; i++) s += a[i] - b[i];
  out(s);
}`,
		"shortcircuit": `
int c;
int bump() { c += 1; return 1; }
void main() {
  if (0 && bump()) out(1);
  if (1 || bump()) out(2);
  out(c);
}`,
		"wraparound": `
void main() {
  int big = 2147483647;
  out(big + 1);
  int m = -2147483647 - 1;
  out(m / -1);
  out(m % -1);
}`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) { runBoth(t, src) })
	}
}

func TestOneInstrPerIROp(t *testing.T) {
	ir, mp := generate(t, `
int a[4];
int f(int x) { return x + 1; }
void main() { a[0] = f(3); out(a[0]); }`)
	if len(mp.Instrs) != ir.NumInstrs() {
		t.Fatalf("ISA instrs = %d, IR instrs = %d (must be 1:1)",
			len(mp.Instrs), ir.NumInstrs())
	}
}

func TestDynamicStepCountsMatch(t *testing.T) {
	// Dynamic ISA instruction count must equal the interpreter's dynamic
	// IR step count: that is what makes block-level and instruction-level
	// timing comparable.
	src := `
int t[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) t[i] = i * i;
  int s = 0;
  for (i = 15; i >= 0; i -= 2) s += t[i];
  out(s);
}`
	im, mm := runBoth(t, src)
	if im.Steps != mm.Steps {
		t.Fatalf("dynamic steps differ: interp %d vs machine %d", im.Steps, mm.Steps)
	}
}

func TestTraceMemOperandsMatchStaticCount(t *testing.T) {
	// The number of data addresses the machine touches per instruction
	// must equal cdfg.MemOperands of the corresponding IR instruction.
	ir, mp := generate(t, `
int g;
int a[4];
void main() {
  int x = 1;
  g = x;
  x = g;
  a[0] = x;
  x = a[1];
  g = a[g];
  out(x);
}`)
	m := NewMachine(mp)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	// Collect IR instructions in layout order for main.
	var irInstrs []*cdfg.Instr
	for _, fn := range ir.Funcs {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				irInstrs = append(irInstrs, &b.Instrs[i])
			}
		}
	}
	var tr Trace
	for !m.Done() {
		if err := m.Step(&tr); err != nil {
			t.Fatal(err)
		}
		if tr.Done {
			break
		}
		want := cdfg.MemOperands(irInstrs[tr.PC])
		if len(tr.DAddrs) != want {
			t.Fatalf("pc %d (%v): %d data accesses, MemOperands says %d",
				tr.PC, tr.Op, len(tr.DAddrs), want)
		}
	}
}

func TestGlobalAddressing(t *testing.T) {
	_, mp := generate(t, `
int a;
int b[3] = {7, 8, 9};
int c = 5;
void main() { out(b[2] + c); }`)
	if mp.GlobalAddrs[0] != GlobalBase {
		t.Fatalf("first global at 0x%x", mp.GlobalAddrs[0])
	}
	if mp.GlobalAddrs[1] != GlobalBase+4 {
		t.Fatalf("array after scalar at 0x%x", mp.GlobalAddrs[1])
	}
	if mp.GlobalAddrs[2] != GlobalBase+16 {
		t.Fatalf("scalar after 3-word array at 0x%x", mp.GlobalAddrs[2])
	}
	if mp.Globals[1] != 7 || mp.Globals[3] != 9 || mp.Globals[4] != 5 {
		t.Fatalf("global image wrong: %v", mp.Globals)
	}
}

// The stack's reserved range sets the overflow depth, however little of
// it a machine backs: a recursion of 1000-word frames fails with
// ErrStackOverflow after the same number of calls as with the whole range
// allocated up front (262 = 1 MiB / 4000 bytes).
func TestStackOverflowDetected(t *testing.T) {
	_, mp := generate(t, `
int deep(int n) {
  int pad[1000];
  pad[999] = n;
  out(n);
  return deep(n + 1) + pad[999];
}
void main() { out(deep(1)); }`)
	m := NewMachine(mp)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	err := m.Run(0)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
	if n := len(m.Out); n != 262 || m.Out[261] != 262 {
		t.Fatalf("overflowed after %d calls, want 262", n)
	}
}

func TestMachineReset(t *testing.T) {
	_, mp := generate(t, `
int g;
void main() { g += 1; out(g); }`)
	m := NewMachine(mp)
	for round := 0; round < 3; round++ {
		m.Reset()
		if err := m.Start("main"); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(m.Out) != 1 || m.Out[0] != 1 {
			t.Fatalf("round %d: out = %v, want [1]", round, m.Out)
		}
	}
}

func TestManyCallArguments(t *testing.T) {
	// More arguments than the machine's inline arg buffer (16).
	runBoth(t, `
int f(int a0,int a1,int a2,int a3,int a4,int a5,int a6,int a7,int a8,int a9,
      int b0,int b1,int b2,int b3,int b4,int b5,int b6,int b7,int b8,int b9) {
  return a0+a1+a2+a3+a4+a5+a6+a7+a8+a9+b0*2+b1*2+b2*2+b3*2+b4*2+b5*2+b6*2+b7*2+b8*2+b9*2;
}
void main() {
  out(f(1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10));
}`)
}

func TestArrayArgumentAliasing(t *testing.T) {
	// The same array passed as both parameters: both engines must observe
	// the aliasing identically.
	runBoth(t, `
int buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
void mix(int a[], int b[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = a[i] + b[n - 1 - i];
  }
}
void main() {
  mix(buf, buf, 8);
  int i;
  for (i = 0; i < 8; i++) out(buf[i]);
}`)
}

func TestSendRecvTraceFields(t *testing.T) {
	_, mp := generate(t, `
int buf[4] = {9, 8, 7, 6};
void main() {
  send(3, buf, 4);
  recv(5, buf, 2);
  out(buf[0]);
}`)
	m := NewMachine(mp)
	m.Send = func(ch int, data []int32) error { return nil }
	m.Recv = func(ch int, buf []int32) error {
		for i := range buf {
			buf[i] = 42
		}
		return nil
	}
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	var sendTr, recvTr Trace
	var tr Trace
	for !m.Done() {
		if err := m.Step(&tr); err != nil {
			t.Fatal(err)
		}
		switch tr.Op {
		case cdfg.OpSend:
			sendTr = tr
			sendTr.DAddrs = append([]uint32(nil), tr.DAddrs...)
		case cdfg.OpRecv:
			recvTr = tr
		}
	}
	if !sendTr.IsSend || sendTr.Bus != 4 || sendTr.Chan != 3 {
		t.Fatalf("send trace: %+v", sendTr)
	}
	if recvTr.IsSend || recvTr.Bus != 2 || recvTr.Chan != 5 {
		t.Fatalf("recv trace: %+v", recvTr)
	}
	if m.Out[0] != 42 {
		t.Fatalf("recv did not write memory: %v", m.Out)
	}
}

func TestNopExecutes(t *testing.T) {
	mp := &Program{
		Instrs: []Inst{
			{Op: cdfg.OpNop},
			{Op: cdfg.OpRet},
		},
		Funcs:  []FuncInfo{{Name: "main", Entry: 0}},
		ByName: map[string]int{"main": 0},
	}
	m := NewMachine(mp)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Steps != 2 {
		t.Fatalf("steps = %d, want 2", m.Steps)
	}
}

func TestBadAddressFaults(t *testing.T) {
	// A send with a base address outside any segment must fail cleanly.
	mp := &Program{
		Instrs: []Inst{
			{Op: cdfg.OpSend, Base: BaseGlob, BaseAddr: 0xDEAD0000,
				A: Operand{Kind: OpdImm, Imm: 4}, Chan: 0},
			{Op: cdfg.OpRet},
		},
		Funcs:  []FuncInfo{{Name: "main", Entry: 0}},
		ByName: map[string]int{"main": 0},
	}
	m := NewMachine(mp)
	m.Send = func(ch int, data []int32) error { return nil }
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10); err == nil {
		t.Fatal("expected bad-address error")
	}
}

func TestDisassembleCoversProgram(t *testing.T) {
	_, mp := generate(t, `
int g = 3;
int a[4];
int f(int x, int y) { return x * y + g; }
void main() {
  a[0] = f(2, 3);
  send(1, a, 4);
  recv(2, a, 4);
  out(a[0]);
}`)
	asm := Disassemble(mp)
	// One line per instruction plus function headers.
	for _, want := range []string{"main:", "f:", "call", "mul", "send  ch1",
		"recv  ch2", "out", "ret", "ld", "st"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
	lines := strings.Count(asm, "\n")
	if lines < len(mp.Instrs) {
		t.Fatalf("disassembly too short: %d lines for %d instrs", lines, len(mp.Instrs))
	}
}

// A machine backs only the stack its program touches: loading and running
// a small program allocates far less than the 1 MiB reserved range.
func TestSmallProgramAllocatesLittleStack(t *testing.T) {
	_, mp := generate(t, `
int sq(int x) { int t[4]; t[0] = x * x; return t[0]; }
void main() { out(sq(7)); }`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(mp)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if m.Out[0] != 49 {
		t.Fatalf("out = %v, want [49]", m.Out)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("machine allocated %d bytes, want under 256 KiB", got)
	}
}

// Bus transfers address the stack through the grown backing: the deepest
// frame of a recursion reaching most of the reserved range sends its local
// array and receives into it, and both move the right words.
func TestStackTransferFromDeepestFrame(t *testing.T) {
	_, mp := generate(t, `
int dive(int n) {
  int a[80];
  int i;
  int s;
  if (n > 0) return dive(n - 1);
  for (i = 0; i < 80; i++) a[i] = 3 * i + 1;
  send(1, a, 80);
  recv(2, a, 80);
  s = 0;
  for (i = 0; i < 80; i++) s += a[i];
  return s;
}
void main() { out(dive(3000)); }`)
	m := NewMachine(mp)
	var sent []int32
	m.Send = func(ch int, data []int32) error {
		sent = append(sent, data...)
		return nil
	}
	m.Recv = func(ch int, buf []int32) error {
		for i := range buf {
			buf[i] = int32(1000 + i)
		}
		return nil
	}
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 80 {
		t.Fatalf("sent %d words, want 80", len(sent))
	}
	for i, v := range sent {
		if v != int32(3*i+1) {
			t.Fatalf("sent[%d] = %d, want %d", i, v, 3*i+1)
		}
	}
	if want := int32(80*1000 + 79*80/2); len(m.Out) != 1 || m.Out[0] != want {
		t.Fatalf("out = %v, want [%d]", m.Out, want)
	}
}
