package annotate

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/interp"
	"ese/internal/pum"
)

const sampleSrc = `
int coeff[4] = {3, 1, 4, 1};
int acc;
int mac(int a[], int n, int k) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) s += a[i] * k;
  return s;
}
void main() {
  int i;
  for (i = 1; i <= 3; i++) {
    acc += mac(coeff, 4, i) % 100;
    if (acc > 50) acc -= 7;
  }
  out(acc);
}
`

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

func annotated(t *testing.T) *Annotated {
	t.Helper()
	prog := compile(t, sampleSrc)
	p, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024})
	if err != nil {
		t.Fatalf("WithCache: %v", err)
	}
	return Annotate(prog, p, core.FullDetail)
}

func TestAnnotateProducesEstimateForEveryBlock(t *testing.T) {
	a := annotated(t)
	if len(a.Est) != a.Prog.NumBlocks() {
		t.Fatalf("estimates = %d, blocks = %d", len(a.Est), a.Prog.NumBlocks())
	}
	delays := a.Delays()
	for b, d := range delays {
		if len(b.Instrs) > 0 && d <= 0 {
			t.Fatalf("bb%d has non-positive delay %v", b.ID, d)
		}
	}
	if a.TotalStatic() <= 0 {
		t.Fatal("total static delay is zero")
	}
}

func TestEmitTimedCContainsWaits(t *testing.T) {
	a := annotated(t)
	src := a.EmitTimedC()
	if !strings.Contains(src, "extern void wait(int cycles);") {
		t.Error("missing wait declaration")
	}
	if strings.Count(src, "wait(") < a.Prog.NumBlocks() {
		t.Errorf("fewer wait() calls than blocks:\n%s", src)
	}
	for _, want := range []string{
		"int coeff[4] = {3, 1, 4, 1};",
		"int mac(int a[], int n, int k) {",
		"void main(void) {",
		"goto bb",
		"out(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("timed C missing %q", want)
		}
	}
	// Braces balance.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in timed C")
	}
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestSummaryMentionsFunctions(t *testing.T) {
	a := annotated(t)
	s := a.Summary()
	for _, want := range []string{"mac", "main", "annotation time"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestAnnotationDependsOnCacheConfig(t *testing.T) {
	prog := compile(t, sampleSrc)
	small, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 2048, DSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	big, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 32 * 1024, DSize: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	aSmall := Annotate(prog, small, core.FullDetail)
	aBig := Annotate(prog, big, core.FullDetail)
	if aSmall.TotalStatic() <= aBig.TotalStatic() {
		t.Fatalf("smaller cache (%v) not costlier than bigger (%v)",
			aSmall.TotalStatic(), aBig.TotalStatic())
	}
}

// TestEmittedCExecutes compiles the generated timed C with a host C
// compiler, links it against a driver providing wait/out/send/recv, runs
// it, and checks that the accumulated wait cycles and the out() stream
// match the IR interpreter with the same annotation — the paper's
// "annotated C code is compiled and linked" step, validated end to end.
func TestEmittedCExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling generated code is slow")
	}
	gcc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler available")
	}
	a := annotated(t)
	src := a.EmitTimedC()

	// Reference: interpret with delay accumulation.
	m := interp.New(a.Prog)
	var refCycles int64
	delays := a.Delays()
	m.OnBlock = func(b *cdfg.Block) error { refCycles += int64(delays[b]); return nil }
	if err := m.Run("main"); err != nil {
		t.Fatalf("interp: %v", err)
	}

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
	dir := t.TempDir()
	appC := filepath.Join(dir, "app.c")
	drvC := filepath.Join(dir, "driver.c")
	bin := filepath.Join(dir, "timed")
	if err := os.WriteFile(appC, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(drvC, []byte(driver), 0o644); err != nil {
		t.Fatal(err)
	}
	// -Dmain=app_main renames only the application's entry; -fwrapv gives
	// the subset's wrap-around arithmetic semantics.
	cmd := exec.Command(gcc, "-fwrapv", "-Dmain=app_main", "-c", "-o", filepath.Join(dir, "app.o"), appC)
	if outB, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cc app.c: %v\n%s\n--- emitted C ---\n%s", err, outB, src)
	}
	cmd = exec.Command(gcc, "-o", bin, drvC, filepath.Join(dir, "app.o"))
	if outB, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cc link: %v\n%s", err, outB)
	}
	outB, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, outB)
	}
	got := string(outB)
	wantCycles := "cycles " + itoa64(refCycles)
	if !strings.Contains(got, wantCycles) {
		t.Errorf("compiled C cycles mismatch: want %q in:\n%s", wantCycles, got)
	}
	for _, v := range m.Out {
		want := "out " + itoa64(int64(v)) + "\n"
		if !strings.Contains(got, want) {
			t.Errorf("compiled C missing output %q", strings.TrimSpace(want))
		}
	}
	// Output count matches exactly.
	if strings.Count(got, "out ") != len(m.Out) {
		t.Errorf("compiled C emitted %d values, want %d",
			strings.Count(got, "out "), len(m.Out))
	}
}
