package annotate

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/interp"
	"ese/internal/pum"
)

// cGen generates random valid programs of the subset for differential
// testing of the C emitter. It reuses the idea of the ISA fuzz generator
// but may freely produce division by zero and INT_MIN corner values,
// because the emitted C pins the subset's semantics via runtime helpers.
type cGen struct {
	rng uint32
	sb  strings.Builder
}

func (g *cGen) next() uint32 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 17
	g.rng ^= g.rng << 5
	return g.rng
}

func (g *cGen) pick(n int) int { return int(g.next() % uint32(n)) }

func (g *cGen) expr(scope []string, depth int) string {
	if depth <= 0 || g.pick(3) == 0 {
		switch g.pick(3) {
		case 0:
			// Include hostile constants.
			consts := []string{"0", "1", "-1", "2147483647", "-2147483647 - 1",
				fmt.Sprintf("%d", int32(g.next()))}
			return "(" + consts[g.pick(len(consts))] + ")"
		case 1:
			if len(scope) > 0 {
				return scope[g.pick(len(scope))]
			}
			return "g0"
		default:
			return fmt.Sprintf("arr[(%s) & 15]", g.expr(scope, 0))
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"==", "!=", "<", "<=", ">", ">=", "&&", "||"}
	op := ops[g.pick(len(ops))]
	return "(" + g.expr(scope, depth-1) + " " + op + " " + g.expr(scope, depth-1) + ")"
}

func (g *cGen) generate() string {
	g.sb.Reset()
	g.sb.WriteString("int g0 = 7;\nint arr[16];\n")
	g.sb.WriteString("int mixer(int a, int b) {\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&g.sb, "  a = %s;\n", g.expr([]string{"a", "b"}, 3))
	}
	g.sb.WriteString("  return a;\n}\n")
	g.sb.WriteString("void main() {\n  int x = 1;\n  int i;\n")
	fmt.Fprintf(&g.sb, "  for (i = 0; i < 12; i++) {\n")
	fmt.Fprintf(&g.sb, "    arr[i & 15] = %s;\n", g.expr([]string{"x", "i"}, 3))
	fmt.Fprintf(&g.sb, "    x = mixer(x, %s);\n", g.expr([]string{"x", "i"}, 2))
	g.sb.WriteString("    out(x);\n  }\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&g.sb, "  out(arr[%d]);\n", i)
	}
	g.sb.WriteString("}\n")
	return g.sb.String()
}

// TestDifferentialEmittedCVsInterp compiles random programs to timed C,
// runs them natively, and compares outputs and cycles with the interpreter.
func TestDifferentialEmittedCVsInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the C compiler repeatedly")
	}
	gcc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler available")
	}
	dir := t.TempDir()
	const driver = `
#include <stdio.h>
static long long cycles;
void wait(int c) { cycles += c; }
void out(int v) { printf("out %d\n", v); }
void send(int ch, int *arr, int n) { (void)ch; (void)arr; (void)n; }
void recv(int ch, int *arr, int n) { (void)ch; (void)arr; (void)n; }
extern void app_main(void);
int main(void) {
	app_main();
	printf("cycles %lld\n", cycles);
	return 0;
}
`
	drvC := filepath.Join(dir, "driver.c")
	if err := os.WriteFile(drvC, []byte(driver), 0o644); err != nil {
		t.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= 12; seed++ {
		g := &cGen{rng: uint32(seed) * 2891336453}
		if g.rng == 0 {
			g.rng = 1
		}
		src := g.generate()
		f, err := cfront.Parse("fuzz.c", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		u, err := cfront.Check(f)
		if err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, src)
		}
		prog, err := cdfg.Lower(u)
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		a := annotateFull(t, prog, model)

		m, err := interp.NewEngine(prog, interp.EngineTree)
		if err != nil {
			t.Fatal(err)
		}
		m.SetLimit(10_000_000)
		var refCycles int64
		m.SetDelays(a.Delays())
		m.SetOnDelay(func(d float64) error { refCycles += int64(d); return nil })
		if err := m.Run("main"); err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}

		appC := filepath.Join(dir, "app.c")
		bin := filepath.Join(dir, "timed")
		if err := os.WriteFile(appC, []byte(a.EmitTimedC()), 0o644); err != nil {
			t.Fatal(err)
		}
		appO := filepath.Join(dir, "app.o")
		cmd := exec.Command(gcc, "-fwrapv", "-Dmain=app_main", "-c", "-o", appO, appC)
		if outB, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("seed %d: cc app: %v\n%s\n%s", seed, err, outB, a.EmitTimedC())
		}
		cmd = exec.Command(gcc, "-o", bin, drvC, appO)
		if outB, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("seed %d: cc link: %v\n%s", seed, err, outB)
		}
		outB, err := exec.Command(bin).CombinedOutput()
		if err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, outB)
		}
		got := string(outB)
		var outs []string
		for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
			if strings.HasPrefix(line, "out ") {
				outs = append(outs, strings.TrimPrefix(line, "out "))
			}
		}
		if len(outs) != len(m.OutStream()) {
			t.Fatalf("seed %d: %d outputs vs interp %d\n%s", seed, len(outs), len(m.OutStream()), src)
		}
		for i, v := range m.OutStream() {
			if outs[i] != itoa64(int64(v)) {
				t.Fatalf("seed %d: out[%d] = %s, interp %d\n%s", seed, i, outs[i], v, src)
			}
		}
		if !strings.Contains(got, "cycles "+itoa64(refCycles)) {
			t.Fatalf("seed %d: cycle mismatch (want %d):\n%s", seed, refCycles, got)
		}
	}
}
