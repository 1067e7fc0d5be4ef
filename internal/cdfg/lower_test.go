package cdfg

import (
	"strings"
	"testing"

	"ese/internal/cfront"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	f, err := cfront.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u, err := cfront.Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := Lower(u)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return p
}

// checkWellFormed asserts structural CFG invariants that every lowered
// function must satisfy.
func checkWellFormed(t *testing.T, p *Program) {
	t.Helper()
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			t.Fatalf("%s: no blocks", f.Name)
		}
		inFunc := make(map[*Block]bool)
		for _, b := range f.Blocks {
			inFunc[b] = true
		}
		for i, b := range f.Blocks {
			if b.ID != i {
				t.Errorf("%s: block %d has ID %d", f.Name, i, b.ID)
			}
			term := b.Terminator()
			if term == nil || !term.Op.IsTerminator() {
				t.Fatalf("%s bb%d: missing terminator\n%s", f.Name, b.ID, f.Dump())
			}
			for j := range b.Instrs[:len(b.Instrs)-1] {
				if b.Instrs[j].Op.IsTerminator() {
					t.Errorf("%s bb%d: terminator at %d is not last", f.Name, b.ID, j)
				}
			}
			for _, s := range b.Succs() {
				if !inFunc[s] {
					t.Errorf("%s bb%d: successor outside function", f.Name, b.ID)
				}
			}
		}
		// All blocks reachable from entry (lowering prunes the rest).
		seen := make(map[*Block]bool)
		var visit func(b *Block)
		visit = func(b *Block) {
			if seen[b] {
				return
			}
			seen[b] = true
			for _, s := range b.Succs() {
				visit(s)
			}
		}
		visit(f.Entry())
		if len(seen) != len(f.Blocks) {
			t.Errorf("%s: %d blocks but only %d reachable\n%s",
				f.Name, len(f.Blocks), len(seen), f.Dump())
		}
	}
}

func TestLowerWellFormed(t *testing.T) {
	p := compile(t, `
int g = 4;
int tab[8];
int f(int x, int y) {
  if (x > y && x > 0) return x;
  return y;
}
void main() {
  int i;
  for (i = 0; i < 8; i++) {
    tab[i] = f(i, g) ? i : -i;
    if (i == 5) break;
    if (i % 2) continue;
    while (tab[i] > 3) tab[i] -= 1;
  }
  do { g--; } while (g > 0 || tab[0]);
  send(1, tab, 8);
  out(g);
}`)
	checkWellFormed(t, p)
}

func TestLowerConstFolding(t *testing.T) {
	p := compile(t, `void main() { out(2 + 3 * 4); }`)
	f := p.Func("main")
	// The folded expression must appear as a single constant operand.
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpOut && in.A.Kind == RefConst && in.A.Val == 14 {
				found = true
			}
			if in.Op == OpMul || in.Op == OpAdd {
				t.Errorf("constant expression not folded: %s", formatInstr(in))
			}
		}
	}
	if !found {
		t.Fatalf("folded out(#14) not found:\n%s", f.Dump())
	}
}

func TestLowerConstBranchElided(t *testing.T) {
	p := compile(t, `void main() { if (1) out(1); else out(2); }`)
	f := p.Func("main")
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == OpBr {
				t.Fatalf("constant condition still lowered to br:\n%s", f.Dump())
			}
			if b.Instrs[i].Op == OpOut && b.Instrs[i].A.Val == 2 {
				t.Fatalf("dead else branch survived:\n%s", f.Dump())
			}
		}
	}
}

func TestLowerBranchShape(t *testing.T) {
	p := compile(t, `
void main() {
  int x = 1;
  if (x) { out(1); } else { out(2); }
}`)
	f := p.Func("main")
	checkWellFormed(t, p)
	brs := 0
	for _, b := range f.Blocks {
		if b.Terminator().Op == OpBr {
			brs++
			if b.Terminator().Then == b.Terminator().Else {
				t.Error("br with identical targets")
			}
		}
	}
	if brs != 1 {
		t.Fatalf("branch count = %d, want 1\n%s", brs, f.Dump())
	}
}

func TestLowerShortCircuitCreatesBlocks(t *testing.T) {
	pShort := compile(t, `void main(){ int a=1; int b=2; if (a && b) out(1); }`)
	pPlain := compile(t, `void main(){ int a=1; if (a) out(1); }`)
	if len(pShort.Func("main").Blocks) <= len(pPlain.Func("main").Blocks) {
		t.Fatalf("&& did not add control flow: %d vs %d blocks",
			len(pShort.Func("main").Blocks), len(pPlain.Func("main").Blocks))
	}
}

func TestLowerSlotAssignment(t *testing.T) {
	p := compile(t, `
int helper(int a[], int n) { return a[0] + n; }
void main() { int buf[16]; out(helper(buf, 16)); }`)
	h := p.Func("helper")
	if len(h.Params) != 2 || !h.Params[0].IsArray || h.Params[1].IsArray {
		t.Fatalf("helper params: %+v", h.Params)
	}
	m := p.Func("main")
	if len(m.Slots) != 1 || !m.Slots[0].IsArray || m.Slots[0].Size != 16 {
		t.Fatalf("main slots: %+v", m.Slots[0])
	}
}

func TestLowerGlobals(t *testing.T) {
	p := compile(t, `
int a;
int b = 7;
int c[3] = {1, 2, 3};
void main() { out(a + b + c[0]); }`)
	if len(p.Globals) != 3 {
		t.Fatalf("globals = %d", len(p.Globals))
	}
	if p.Globals[1].Init[0] != 7 || p.Globals[2].Size != 3 {
		t.Fatalf("global metadata wrong: %+v %+v", p.Globals[1], p.Globals[2])
	}
}

func TestDumpIsStable(t *testing.T) {
	p := compile(t, `
int g[2];
int f(int x) { return x * 2; }
void main() { g[0] = f(3); out(g[0]); }`)
	d := p.Dump()
	for _, want := range []string{"func int f", "func void main", "mul", "call f", "store", "out"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestNumInstrsAndBlocks(t *testing.T) {
	p := compile(t, `void main() { int i; for (i = 0; i < 3; i++) out(i); }`)
	if p.NumBlocks() < 4 || p.NumInstrs() < 6 {
		t.Fatalf("blocks=%d instrs=%d, suspiciously small", p.NumBlocks(), p.NumInstrs())
	}
}

func TestOpcodeAndClassStrings(t *testing.T) {
	for op := OpNop; op <= OpOut; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", int(op))
		}
	}
	for c := ClassNone; c <= ClassIO; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d has no name", int(c))
		}
	}
	if Opcode(200).String() == "" || Class(200).String() == "" {
		t.Error("out-of-range values must still render")
	}
}

func TestRefString(t *testing.T) {
	cases := map[string]Ref{
		"#5": Const(5), "t3": Temp(3), "s1": SlotRef(1), "g0": GlobalRef(0),
		"_": {},
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("Ref %+v = %q, want %q", r, got, want)
		}
	}
}

// Reachable walks static calls from the named entries and lists the
// functions in program order, whatever order the walk visits them in;
// a program built without a name map resolves its entries too.
func TestReachableInProgramOrder(t *testing.T) {
	p := compile(t, `
int leaf(int x) { return x + 1; }
int unused(int x) { return x * 2; }
int mid(int x) { return leaf(x); }
int top(int x) { return leaf(mid(x)); }
void main() { out(top(1)); }`)
	names := func(fns []*Function) string {
		var s []string
		for _, fn := range fns {
			s = append(s, fn.Name)
		}
		return strings.Join(s, ",")
	}
	for _, c := range []struct {
		entries []string
		want    string
	}{
		{[]string{"main"}, "leaf,mid,top,main"},
		{[]string{"mid"}, "leaf,mid"},
		{[]string{"mid", "unused", "nonexistent"}, "leaf,unused,mid"},
		{[]string{"nonexistent"}, ""},
	} {
		if got := names(p.Reachable(c.entries...)); got != c.want {
			t.Errorf("Reachable(%v) = %q, want %q", c.entries, got, c.want)
		}
		bare := &Program{Globals: p.Globals, Funcs: p.Funcs}
		if got := names(bare.Reachable(c.entries...)); got != c.want {
			t.Errorf("Reachable(%v) without a name map = %q, want %q", c.entries, got, c.want)
		}
	}
}
