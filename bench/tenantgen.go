package main

import (
	"fmt"
	"strings"
)

// tenantSteps bounds the dynamic step count of every generated tenant
// program; profiled estimate requests carry it as their step limit.
const tenantSteps = 1_000_000

// tenantProgram generates the C-subset source of one tenant program from
// a seed: global arrays and scalars, loop-free leaf functions, array
// kernels with bounded loops calling the leaves, and a main that fills the
// arrays, runs the kernels and emits results. Every constant comes from
// the seed, so programs of different seeds share no basic block and miss
// the schedule cache. Loops have constant trip counts and the call graph
// is acyclic, so every program ends within tenantSteps steps.
func tenantProgram(seed uint64) string {
	g := &tenantGen{rng: splitmix(seed)}
	return g.program()
}

const tenantArray = 16 // elements per global array; indices are masked to it

type tenantGen struct {
	rng     splitmix
	sb      strings.Builder
	indent  int
	arrays  []string // global arrays
	scalars []string // global scalars
	leaves  []string // int f(int a, int b), defined so far
}

func (g *tenantGen) n(lo, hi int) int { return lo + g.rng.intn(hi-lo+1) }

func (g *tenantGen) konst() string {
	v := g.n(-999, 999)
	if v < 0 {
		return fmt.Sprintf("(%d)", v)
	}
	return fmt.Sprint(v)
}

func (g *tenantGen) pick(s []string) string { return s[g.rng.intn(len(s))] }

func (g *tenantGen) line(format string, args ...any) {
	g.sb.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// expr builds an integer expression over the readable names.
func (g *tenantGen) expr(vars []string, depth int) string {
	if depth == 0 || g.rng.intn(4) == 0 {
		if g.rng.intn(3) > 0 {
			return g.pick(vars)
		}
		return g.konst()
	}
	switch k := g.rng.intn(12); {
	case k < 6:
		op := g.pick([]string{"+", "-", "*", "&", "|", "^", "/", "%"})
		return "(" + g.expr(vars, depth-1) + " " + op + " " + g.expr(vars, depth-1) + ")"
	case k < 8:
		return fmt.Sprintf("(%s %s %d)", g.expr(vars, depth-1), g.pick([]string{"<<", ">>"}), g.n(1, 7))
	case k < 9:
		return "(" + g.cond(vars, depth-1) + " ? " + g.expr(vars, depth-1) + " : " + g.expr(vars, depth-1) + ")"
	case k < 10 && len(g.leaves) > 0:
		return fmt.Sprintf("%s(%s, %s)", g.pick(g.leaves), g.expr(vars, depth-1), g.expr(vars, depth-1))
	case len(g.arrays) > 0:
		return fmt.Sprintf("%s[%s & %d]", g.pick(g.arrays), g.expr(vars, depth-1), tenantArray-1)
	default:
		return g.konst()
	}
}

// cond builds a comparison, sometimes joined by && or || or negated.
func (g *tenantGen) cond(vars []string, depth int) string {
	c := "(" + g.expr(vars, depth) + " " + g.pick([]string{"<", "<=", ">", ">=", "==", "!="}) + " " + g.konst() + ")"
	switch g.rng.intn(5) {
	case 0:
		return "(" + c + " && " + g.cond(vars, 0) + ")"
	case 1:
		return "(" + c + " || " + g.cond(vars, 0) + ")"
	case 2:
		return "!" + c
	}
	return c
}

// stmts emits n straight-line or branching statements assigning to the
// writable names (never to loop counters).
func (g *tenantGen) stmts(n int, write, read []string, nest int) {
	for i := 0; i < n; i++ {
		switch k := g.rng.intn(6); {
		case k < 3:
			op := g.pick([]string{"=", "+=", "-=", "^=", "|="})
			g.line("%s %s %s;", g.pick(write), op, g.expr(read, 2))
		case k < 4 && len(g.arrays) > 0:
			g.line("%s[%s & %d] = %s;", g.pick(g.arrays), g.expr(read, 1), tenantArray-1, g.expr(read, 2))
		case nest > 0:
			g.line("if (%s) {", g.cond(read, 1))
			g.indent++
			g.stmts(g.n(1, 2), write, read, nest-1)
			g.indent--
			if g.rng.intn(2) == 0 {
				g.line("} else {")
				g.indent++
				g.stmts(g.n(1, 2), write, read, nest-1)
				g.indent--
			}
			g.line("}")
		default:
			g.line("%s = %s;", g.pick(write), g.expr(read, 1))
		}
	}
}

// loop emits a counted loop over counter (a for, while or do-while).
func (g *tenantGen) loop(counter, bound string, body func()) {
	switch g.rng.intn(3) {
	case 0:
		g.line("for (%s = 0; %s < %s; %s++) {", counter, counter, bound, counter)
		g.indent++
		body()
		g.indent--
		g.line("}")
	case 1:
		g.line("%s = 0;", counter)
		g.line("while (%s < %s) {", counter, bound)
		g.indent++
		body()
		g.line("%s++;", counter)
		g.indent--
		g.line("}")
	default:
		g.line("%s = 0;", counter)
		g.line("do {")
		g.indent++
		body()
		g.line("%s++;", counter)
		g.indent--
		g.line("} while (%s < %s);", counter, bound)
	}
}

func (g *tenantGen) program() string {
	for i, n := 0, g.n(2, 3); i < n; i++ {
		name := fmt.Sprintf("g%d", i)
		vals := make([]string, tenantArray)
		for k := range vals {
			vals[k] = g.konst()
		}
		g.line("int %s[%d] = {%s};", name, tenantArray, strings.Join(vals, ", "))
		g.arrays = append(g.arrays, name)
	}
	for i, n := 0, g.n(1, 2); i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		g.line("int %s = %s;", name, g.konst())
		g.scalars = append(g.scalars, name)
	}

	for i, n := 0, g.n(2, 4); i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		g.line("")
		g.line("int %s(int a, int b) {", name)
		g.indent++
		g.line("int t;")
		g.line("t = %s;", g.expr([]string{"a", "b"}, 2))
		g.stmts(g.n(1, 3), []string{"t"}, []string{"a", "b", "t"}, 1)
		g.line("return t;")
		g.indent--
		g.line("}")
		g.leaves = append(g.leaves, name)
	}

	var kernels []string
	for i, n := 0, g.n(1, 3); i < n; i++ {
		name := fmt.Sprintf("k%d", i)
		g.line("")
		g.line("void %s(int v[], int n) {", name)
		g.indent++
		g.line("int i; int j; int acc;")
		g.line("acc = %s;", g.konst())
		read := []string{"i", "acc", "n", fmt.Sprintf("v[i & %d]", tenantArray-1)}
		write := append([]string{"acc"}, g.scalars...)
		g.loop("i", "n", func() {
			g.stmts(g.n(2, 4), write, append(read, g.scalars...), 1)
			g.line("v[(i * %d) & %d] = %s;", g.n(1, 9), tenantArray-1, g.expr(read, 2))
			if g.rng.intn(2) == 0 {
				g.loop("j", fmt.Sprint(g.n(2, 6)), func() {
					g.stmts(g.n(1, 2), write, append(read, "j"), 0)
				})
			}
		})
		g.line("%s = %s + acc;", g.scalars[0], g.scalars[0])
		g.indent--
		g.line("}")
		kernels = append(kernels, name)
	}

	g.line("")
	g.line("void main() {")
	g.indent++
	g.line("int i; int r;")
	g.line("r = %s;", g.konst())
	read := append([]string{"r"}, g.scalars...)
	for _, a := range g.arrays {
		g.line("for (i = 0; i < %d; i++) { %s[i] = %s[i] + i * %d; }", tenantArray, a, a, g.n(1, 99))
	}
	for _, k := range kernels {
		for c := g.n(1, 2); c > 0; c-- {
			g.line("%s(%s, %d);", k, g.pick(g.arrays), g.n(4, tenantArray))
		}
		g.stmts(g.n(1, 2), []string{"r"}, read, 1)
	}
	g.line("out(r);")
	for _, s := range g.scalars {
		g.line("out(%s);", s)
	}
	for _, a := range g.arrays {
		g.line("out(%s[%d]);", a, g.rng.intn(tenantArray))
	}
	g.indent--
	g.line("}")
	return g.sb.String()
}
