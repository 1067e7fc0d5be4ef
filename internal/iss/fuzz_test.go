package iss

import (
	"fmt"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/interp"
)

// progGen generates random (but always valid and terminating) programs of
// the C subset, for differential testing of the execution engines. All
// loops are bounded counted loops; all array indices are masked into
// range; recursion is excluded. Any divergence between the IR interpreter
// and the ISA machine on a generated program is a real bug in one of them.
type progGen struct {
	rng     uint32
	sb      strings.Builder
	nglob   int
	garrs   []int // sizes of global arrays
	depth   int
	funcIdx int
}

func (g *progGen) next() uint32 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 17
	g.rng ^= g.rng << 5
	return g.rng
}

func (g *progGen) pick(n int) int { return int(g.next() % uint32(n)) }

// expr emits a random int expression over the names in scope.
func (g *progGen) expr(scope []string, depth int) string {
	if depth <= 0 || g.pick(3) == 0 {
		switch g.pick(4) {
		case 0:
			return fmt.Sprintf("%d", int32(g.next()%2001)-1000)
		case 1:
			if len(scope) > 0 {
				return scope[g.pick(len(scope))]
			}
			return "7"
		case 2:
			if g.nglob > 0 {
				return fmt.Sprintf("g%d", g.pick(g.nglob))
			}
			return "3"
		default:
			if len(g.garrs) > 0 {
				a := g.pick(len(g.garrs))
				return fmt.Sprintf("arr%d[(%s) & %d]", a, g.expr(scope, 0), g.garrs[a]-1)
			}
			return "11"
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"==", "!=", "<", "<=", ">", ">=", "&&", "||"}
	op := ops[g.pick(len(ops))]
	l := g.expr(scope, depth-1)
	r := g.expr(scope, depth-1)
	if op == "<<" || op == ">>" {
		r = fmt.Sprintf("((%s) & 15)", r)
	}
	if g.pick(6) == 0 {
		return fmt.Sprintf("(%s %s %s ? %s : %s)", l, op, r,
			g.expr(scope, depth-1), g.expr(scope, depth-1))
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

// stmt emits a random statement. scope is readable; wscope is the subset
// that may be written (loop induction variables are read-only so loops
// stay bounded).
func (g *progGen) stmt(scope, wscope []string, indent string, depth int) {
	switch g.pick(7) {
	case 0, 1: // assignment to a scope var or array element
		if len(g.garrs) > 0 && g.pick(2) == 0 {
			a := g.pick(len(g.garrs))
			fmt.Fprintf(&g.sb, "%sarr%d[(%s) & %d] = %s;\n", indent,
				a, g.expr(scope, 1), g.garrs[a]-1, g.expr(scope, 2))
			return
		}
		if len(wscope) > 0 {
			v := wscope[g.pick(len(wscope))]
			compound := []string{"=", "+=", "-=", "*=", "^=", "|=", "&="}
			fmt.Fprintf(&g.sb, "%s%s %s %s;\n", indent, v,
				compound[g.pick(len(compound))], g.expr(scope, 2))
			return
		}
		fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(scope, 2))
	case 2: // out
		fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(scope, 2))
	case 3: // if/else
		if depth <= 0 {
			fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(scope, 1))
			return
		}
		fmt.Fprintf(&g.sb, "%sif (%s) {\n", indent, g.expr(scope, 2))
		g.stmt(scope, wscope, indent+"  ", depth-1)
		if g.pick(2) == 0 {
			fmt.Fprintf(&g.sb, "%s} else {\n", indent)
			g.stmt(scope, wscope, indent+"  ", depth-1)
		}
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 4: // bounded for loop with a fresh induction variable
		if depth <= 0 {
			fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(scope, 1))
			return
		}
		iv := fmt.Sprintf("i%d_%d", g.depth, g.pick(1000))
		g.depth++
		n := 2 + g.pick(6)
		fmt.Fprintf(&g.sb, "%sfor (int %s = 0; %s < %d; %s++) {\n", indent, iv, iv, n, iv)
		g.stmt(append(scope, iv), wscope, indent+"  ", depth-1)
		fmt.Fprintf(&g.sb, "%s}\n", indent)
		g.depth--
	case 5: // local declaration + use
		v := fmt.Sprintf("v%d_%d", g.depth, g.pick(1000))
		fmt.Fprintf(&g.sb, "%s{\n%s  int %s = %s;\n", indent, indent, v, g.expr(scope, 2))
		g.stmt(append(scope, v), append(wscope, v), indent+"  ", depth-1)
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	default: // inc/dec
		if len(wscope) > 0 {
			v := wscope[g.pick(len(wscope))]
			if g.pick(2) == 0 {
				fmt.Fprintf(&g.sb, "%s%s++;\n", indent, v)
			} else {
				fmt.Fprintf(&g.sb, "%s%s--;\n", indent, v)
			}
			return
		}
		fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(scope, 1))
	}
}

// generate builds a whole program with helper functions and a main.
func (g *progGen) generate() string {
	g.sb.Reset()
	g.nglob = 1 + g.pick(4)
	for i := 0; i < g.nglob; i++ {
		fmt.Fprintf(&g.sb, "int g%d = %d;\n", i, int32(g.next()%100)-50)
	}
	narr := 1 + g.pick(3)
	g.garrs = nil
	for i := 0; i < narr; i++ {
		size := []int{4, 8, 16, 32}[g.pick(4)]
		g.garrs = append(g.garrs, size)
		fmt.Fprintf(&g.sb, "int arr%d[%d];\n", i, size)
	}
	// A couple of helper functions with scalar and array params.
	nfun := 1 + g.pick(3)
	var helpers []string
	for i := 0; i < nfun; i++ {
		name := fmt.Sprintf("helper%d", i)
		helpers = append(helpers, name)
		fmt.Fprintf(&g.sb, "int %s(int a, int b) {\n", name)
		g.stmt([]string{"a", "b"}, []string{"a", "b"}, "  ", 2)
		fmt.Fprintf(&g.sb, "  return %s;\n}\n", g.expr([]string{"a", "b"}, 2))
	}
	g.sb.WriteString("void main() {\n  int x = 1;\n  int y = 2;\n")
	for s := 0; s < 4+g.pick(6); s++ {
		if g.pick(4) == 0 {
			h := helpers[g.pick(len(helpers))]
			fmt.Fprintf(&g.sb, "  x = %s(%s, %s);\n", h,
				g.expr([]string{"x", "y"}, 1), g.expr([]string{"x", "y"}, 1))
			continue
		}
		g.stmt([]string{"x", "y"}, []string{"x", "y"}, "  ", 3)
	}
	g.sb.WriteString("  out(x);\n  out(y);\n")
	for i := 0; i < g.nglob; i++ {
		fmt.Fprintf(&g.sb, "  out(g%d);\n", i)
	}
	g.sb.WriteString("}\n")
	return g.sb.String()
}

// TestDifferentialInterpVsMachine generates random programs and checks that
// the IR interpreter and the ISA machine produce identical out() streams
// and identical dynamic step counts.
func TestDifferentialInterpVsMachine(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 25
	}
	for seed := 1; seed <= iters; seed++ {
		g := &progGen{rng: uint32(seed) * 2654435761}
		if g.rng == 0 {
			g.rng = 1
		}
		src := g.generate()
		ir, mp := func() (*interp.Machine, *Machine) {
			prog := compile(t, src)
			isa, err := Generate(prog)
			if err != nil {
				t.Fatalf("seed %d: Generate: %v\n%s", seed, err, src)
			}
			im := interp.New(prog)
			im.Limit = 10_000_000
			if err := im.Run("main"); err != nil {
				t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
			}
			mm := NewMachine(isa)
			if err := mm.Start("main"); err != nil {
				t.Fatalf("seed %d: Start: %v", seed, err)
			}
			if err := mm.Run(10_000_000); err != nil {
				t.Fatalf("seed %d: machine: %v\n%s", seed, err, src)
			}
			return im, mm
		}()
		if len(ir.Out) != len(mp.Out) {
			t.Fatalf("seed %d: out lengths differ (%d vs %d)\n%s",
				seed, len(ir.Out), len(mp.Out), src)
		}
		for i := range ir.Out {
			if ir.Out[i] != mp.Out[i] {
				t.Fatalf("seed %d: out[%d] = %d vs %d\n%s",
					seed, i, ir.Out[i], mp.Out[i], src)
			}
		}
		if ir.Steps != mp.Steps {
			t.Fatalf("seed %d: steps differ (%d vs %d)\n%s",
				seed, ir.Steps, mp.Steps, src)
		}
	}
}

// TestDifferentialSimplifyPreservesSemantics: the CFG simplification pass
// must never change program behavior — checked on random programs by
// running the original and simplified IR on both engines.
func TestDifferentialSimplifyPreservesSemantics(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 20
	}
	for seed := 1; seed <= iters; seed++ {
		g := &progGen{rng: uint32(seed) * 747796405}
		if g.rng == 0 {
			g.rng = 1
		}
		src := g.generate()

		ref := compile(t, src)
		im := interp.New(ref)
		im.Limit = 10_000_000
		if err := im.Run("main"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		opt := compile(t, src)
		cdfg.SimplifyProgram(opt)
		om := interp.New(opt)
		om.Limit = 10_000_000
		if err := om.Run("main"); err != nil {
			t.Fatalf("seed %d simplified: %v\n%s", seed, err, src)
		}
		if len(im.Out) != len(om.Out) {
			t.Fatalf("seed %d: simplify changed output length\n%s", seed, src)
		}
		for i := range im.Out {
			if im.Out[i] != om.Out[i] {
				t.Fatalf("seed %d: simplify changed out[%d]\n%s", seed, i, src)
			}
		}
		// The simplified program also runs identically on the ISA machine.
		isa, err := Generate(opt)
		if err != nil {
			t.Fatalf("seed %d: Generate simplified: %v", seed, err)
		}
		mm := NewMachine(isa)
		if err := mm.Start("main"); err != nil {
			t.Fatal(err)
		}
		if err := mm.Run(10_000_000); err != nil {
			t.Fatalf("seed %d: machine on simplified IR: %v\n%s", seed, err, src)
		}
		for i := range im.Out {
			if im.Out[i] != mm.Out[i] {
				t.Fatalf("seed %d: machine diverges on simplified IR at %d\n%s", seed, i, src)
			}
		}
	}
}
