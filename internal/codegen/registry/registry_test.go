// Differential conformance tests of the ahead-of-time generated engine
// tier: every registered engine must be observationally identical to the
// tree-walking reference and the compiled flat engine — same out streams,
// step counts, block counts, pending delay pools, and error text — on the
// self-test corpus and on the full example designs.
package registry_test

import (
	"bytes"
	"context"
	"maps"
	"os"
	"slices"
	"testing"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/codegen"
	"ese/internal/core"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/profile"
	"ese/internal/pum"
	"ese/internal/tlm"
)

var allKinds = []interp.EngineKind{interp.EngineTree, interp.EngineCompiled, interp.EngineGen}

// fullTables estimates every PE of d at full detail, uncached: the delay
// tables a pipeline would hand the TLM and the estimates behind them.
func fullTables(t *testing.T, d *platform.Design) (map[string][]float64, map[string][]core.Estimate) {
	t.Helper()
	delays := make(map[string][]float64, len(d.PEs))
	est := make(map[string][]core.Estimate, len(d.PEs))
	for _, pe := range d.PEs {
		tab, err := core.EstimateBlocksCtx(context.Background(), d.Program, pe.PUM, core.FullDetail, core.EstOptions{})
		if err != nil {
			t.Fatalf("EstimateBlocksCtx %s: %v", pe.Name, err)
		}
		delays[pe.Name], est[pe.Name] = tab.Totals(), tab.Estimates()
	}
	return delays, est
}

// TestRegistryCoversExamplesAndSelfTests asserts a generated engine is
// registered for every example design program and every self-test
// program, and that both -exec=gen and the auto tier resolve it.
func TestRegistryCoversExamplesAndSelfTests(t *testing.T) {
	check := func(name string, prog *cdfg.Program) {
		t.Helper()
		if interp.GeneratedFor(prog) == nil {
			t.Fatalf("%s: no generated engine registered", name)
		}
		e, err := interp.NewEngine(prog, interp.EngineGen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Kind() != interp.EngineGen {
			t.Fatalf("%s: Kind() = %v", name, e.Kind())
		}
		a, err := interp.NewEngine(prog, interp.EngineAuto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Kind() != interp.EngineGen {
			t.Fatalf("%s: EngineAuto picked %v, want gen", name, a.Kind())
		}
	}
	for _, design := range apps.MP3DesignNames {
		// A non-default workload config on purpose: the registry was
		// generated from the default config, and the code fingerprint must
		// not depend on workload globals.
		prog, err := apps.CompileMP3(design, apps.MP3Config{Frames: 1, Seed: 0x5EED})
		if err != nil {
			t.Fatal(err)
		}
		check("mp3 "+design, prog)
	}
	for _, design := range []string{"SW", "SW+DCT"} {
		src := apps.JPEGSource(apps.JPEGConfig{Blocks: 6, Seed: 1})
		if design == "SW+DCT" {
			src = apps.JPEGSourceDCTHW(apps.JPEGConfig{Blocks: 6, Seed: 1})
		}
		prog, err := apps.Compile("jpeg.c", src)
		if err != nil {
			t.Fatal(err)
		}
		check("jpeg "+design, prog)
	}
	for _, sp := range codegen.SelfTest {
		prog, err := codegen.CompileSelfTest(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		check("selftest "+sp.Name, prog)
	}
}

// obs is one engine run's full observable outcome.
type obs struct {
	err     string
	out     []int32
	steps   uint64
	counts  map[*cdfg.Block]uint64
	pending float64
	delays  []float64 // per-block deliveries under SetOnDelay
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// loopback installs deterministic channel intrinsics: send enqueues a
// copy, recv dequeues (or fills a synthetic pattern when empty).
func loopback(e interp.Engine) {
	queues := map[int][][]int32{}
	e.SetChannels(
		func(ch int, data []int32) error {
			queues[ch] = append(queues[ch], append([]int32(nil), data...))
			return nil
		},
		func(ch int, buf []int32) error {
			if q := queues[ch]; len(q) > 0 {
				copy(buf, q[0])
				queues[ch] = q[1:]
				return nil
			}
			for i := range buf {
				buf[i] = int32(ch*100 + i)
			}
			return nil
		})
}

// runOnce executes one engine configuration and captures everything
// observable.
func runOnce(t *testing.T, prog *cdfg.Program, kind interp.EngineKind, cfg func(e interp.Engine) *[]float64) obs {
	t.Helper()
	e, err := interp.NewEngine(prog, kind)
	if err != nil {
		t.Fatalf("%v: NewEngine: %v", kind, err)
	}
	var deliveries *[]float64
	if cfg != nil {
		deliveries = cfg(e)
	}
	o := obs{err: errStr(e.Run("main"))}
	o.out = append([]int32(nil), e.OutStream()...)
	o.steps = e.StepCount()
	o.counts = e.BlockCountsMap()
	o.pending = e.TakePending()
	if deliveries != nil {
		o.delays = *deliveries
	}
	return o
}

func compareObs(t *testing.T, label string, ref, got obs, refKind, kind interp.EngineKind) {
	t.Helper()
	if ref.err != got.err {
		t.Errorf("%s: error diverges:\n  %v: %q\n  %v: %q", label, refKind, ref.err, kind, got.err)
	}
	if !slices.Equal(ref.out, got.out) {
		t.Errorf("%s: out stream diverges (%v %d values, %v %d values)",
			label, refKind, len(ref.out), kind, len(got.out))
	}
	if ref.steps != got.steps {
		t.Errorf("%s: steps diverge: %v %d, %v %d", label, refKind, ref.steps, kind, got.steps)
	}
	if !maps.Equal(ref.counts, got.counts) {
		t.Errorf("%s: block counts diverge", label)
	}
	if ref.pending != got.pending {
		t.Errorf("%s: pending pool diverges: %v %v, %v %v", label, refKind, ref.pending, kind, got.pending)
	}
	if !slices.Equal(ref.delays, got.delays) {
		t.Errorf("%s: onDelay deliveries diverge (%d vs %d)", label, len(ref.delays), len(got.delays))
	}
}

// synthDelays builds a deterministic, non-integral delay table over every
// block (dyadic fractions, so float accumulation is exact and the
// comparison can demand bit equality).
func synthDelays(prog *cdfg.Program) []float64 {
	dm := make([]float64, prog.NumBlocks())
	for i := range dm {
		dm[i] = float64(i%7) + float64(i%3)*0.125
	}
	return dm
}

// TestSelfTestDifferential runs the whole corpus through all three
// engines under several harness configurations and requires identical
// observables, including after Reset.
func TestSelfTestDifferential(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  func(prog *cdfg.Program) func(e interp.Engine) *[]float64
	}{
		{"plain", func(*cdfg.Program) func(e interp.Engine) *[]float64 {
			return func(e interp.Engine) *[]float64 {
				e.EnableProfile()
				return nil
			}
		}},
		{"channels", func(*cdfg.Program) func(e interp.Engine) *[]float64 {
			return func(e interp.Engine) *[]float64 {
				e.EnableProfile()
				loopback(e)
				return nil
			}
		}},
		{"timed-pooled", func(prog *cdfg.Program) func(e interp.Engine) *[]float64 {
			dm := synthDelays(prog)
			return func(e interp.Engine) *[]float64 {
				loopback(e)
				e.SetDelays(dm)
				return nil
			}
		}},
		{"timed-perblock", func(prog *cdfg.Program) func(e interp.Engine) *[]float64 {
			dm := synthDelays(prog)
			return func(e interp.Engine) *[]float64 {
				loopback(e)
				e.SetDelays(dm)
				var got []float64
				e.SetOnDelay(func(d float64) error {
					got = append(got, d)
					return nil
				})
				return &got
			}
		}},
		{"limit", func(*cdfg.Program) func(e interp.Engine) *[]float64 {
			return func(e interp.Engine) *[]float64 {
				loopback(e)
				e.SetLimit(50)
				return nil
			}
		}},
		{"canceled", func(*cdfg.Program) func(e interp.Engine) *[]float64 {
			return func(e interp.Engine) *[]float64 {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				e.SetContext(ctx)
				return nil
			}
		}},
	}
	for _, sp := range codegen.SelfTest {
		prog, err := codegen.CompileSelfTest(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			label := sp.Name + "/" + sc.name
			ref := runOnce(t, prog, interp.EngineTree, sc.cfg(prog))
			for _, kind := range []interp.EngineKind{interp.EngineCompiled, interp.EngineGen} {
				got := runOnce(t, prog, kind, sc.cfg(prog))
				compareObs(t, label, ref, got, interp.EngineTree, kind)
			}
		}
	}
}

// TestGenResetReruns pins Reset: a generated engine re-run after Reset
// reproduces its first run exactly (globals re-initialized from the live
// program).
func TestGenResetReruns(t *testing.T) {
	for _, sp := range codegen.SelfTest {
		if sp.Name == "oob" {
			continue // faults identically both times, but keep this about state
		}
		prog, err := codegen.CompileSelfTest(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := interp.NewEngine(prog, interp.EngineGen)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableProfile()
		loopback(e)
		if err := e.Run("main"); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		out1 := append([]int32(nil), e.OutStream()...)
		steps1 := e.StepCount()
		counts1 := e.BlockCountsMap()
		e.Reset()
		loopback(e) // fresh queues, same behavior
		if err := e.Run("main"); err != nil {
			t.Fatalf("%s: rerun: %v", sp.Name, err)
		}
		if !slices.Equal(out1, e.OutStream()) {
			t.Errorf("%s: out stream differs after Reset", sp.Name)
		}
		if steps1 != e.StepCount() {
			t.Errorf("%s: steps differ after Reset: %d then %d", sp.Name, steps1, e.StepCount())
		}
		if !maps.Equal(counts1, e.BlockCountsMap()) {
			t.Errorf("%s: block counts differ after Reset", sp.Name)
		}
	}
}

// TestGenEntryDispatch pins the generated Run dispatcher's error paths.
func TestGenEntryDispatch(t *testing.T) {
	prog, err := codegen.CompileSelfTest("arith")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		e, err := interp.NewEngine(prog, kind)
		if err != nil {
			t.Fatal(err)
		}
		if got := errStr(e.Run("nosuch")); got != `interp: no function "nosuch"` {
			t.Errorf("%v: missing entry error = %q", kind, got)
		}
		if got := errStr(e.Run("mix")); got != `interp: entry "mix" must take no parameters` {
			t.Errorf("%v: parameterized entry error = %q", kind, got)
		}
	}
}

// TestExampleDesignDifferential runs every example design's timed TLM
// under all three engines — on a workload config different from the one
// the registry was generated with — and requires identical Out streams,
// Steps, per-PE cycles, end time, bus words and block counts.
func TestExampleDesignDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-design differential is slow")
	}
	mb := pum.MicroBlaze()
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	var designs []*platform.Design
	for _, name := range apps.MP3DesignNames {
		d, err := apps.MP3Design(name, apps.MP3Config{Frames: 1, Seed: 0xC0FFEE}, mb, cc)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	for _, name := range []string{"SW", "SW+DCT"} {
		d, err := apps.JPEGDesign(name, apps.JPEGConfig{Blocks: 8, Seed: 0xBEEF}, mb, cc)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	for _, d := range designs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			if interp.GeneratedFor(d.Program) == nil {
				t.Fatalf("no generated engine for %s", d.Name)
			}
			delays, _ := fullTables(t, d)
			run := func(kind interp.EngineKind) *tlm.Result {
				res, err := tlm.Run(d, tlm.Options{
					Timed:    true,
					WaitMode: tlm.WaitAtTransactions,
					Delays:   delays,
					Engine:   kind,
					Profile:  true,
				})
				if err != nil {
					t.Fatalf("%v engine: %v", kind, err)
				}
				return res
			}
			rt := run(interp.EngineTree)
			for _, kind := range []interp.EngineKind{interp.EngineCompiled, interp.EngineGen} {
				rg := run(kind)
				if !maps.EqualFunc(rt.OutByPE, rg.OutByPE, slices.Equal[[]int32]) {
					t.Errorf("%v: OutByPE diverges from tree", kind)
				}
				if rt.Steps != rg.Steps {
					t.Errorf("%v: Steps diverge: tree %d, %v %d", kind, rt.Steps, kind, rg.Steps)
				}
				if !maps.Equal(rt.CyclesByPE, rg.CyclesByPE) {
					t.Errorf("%v: CyclesByPE diverge:\n  tree: %v\n  %v:  %v", kind, rt.CyclesByPE, kind, rg.CyclesByPE)
				}
				if rt.EndPs != rg.EndPs {
					t.Errorf("%v: EndPs diverges: tree %d, %v %d", kind, rt.EndPs, kind, rg.EndPs)
				}
				if rt.BusWords != rg.BusWords {
					t.Errorf("%v: BusWords diverge", kind)
				}
				for key, am := range rt.BlockCountsByPE {
					if !maps.Equal(am, rg.BlockCountsByPE[key]) {
						t.Errorf("%v: BlockCountsByPE[%s] diverges", kind, key)
					}
				}
			}
		})
	}
}

// TestCodeFingerprintConfigIndependence pins the registry's key
// invariant: workload knobs (frames, seed) land only in global
// initializers and must not change the code fingerprint, while a source
// change must.
func TestCodeFingerprintConfigIndependence(t *testing.T) {
	a, err := apps.CompileMP3("SW", apps.MP3Config{Frames: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.CompileMP3("SW", apps.MP3Config{Frames: 4, Seed: 0xDEAD})
	if err != nil {
		t.Fatal(err)
	}
	if a.CodeFingerprint() != b.CodeFingerprint() {
		t.Fatal("MP3 SW code fingerprint depends on the workload config")
	}
	c, err := apps.CompileMP3("SW+1", apps.MP3Config{Frames: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.CodeFingerprint() == c.CodeFingerprint() {
		t.Fatal("distinct designs share a code fingerprint")
	}
}

// TestUnregisteredProgram pins the tier-selection contract for a program
// outside the registry: -exec=gen fails loudly, auto falls back to the
// compiled tier silently.
func TestUnregisteredProgram(t *testing.T) {
	f, err := cfront.Parse("tiny.c", "void main() { out(42); }")
	if err != nil {
		t.Fatal(err)
	}
	u, err := cfront.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cdfg.Lower(u)
	if err != nil {
		t.Fatal(err)
	}
	if interp.GeneratedFor(prog) != nil {
		t.Fatal("trivial program unexpectedly registered")
	}
	if _, err := interp.NewEngine(prog, interp.EngineGen); err == nil {
		t.Fatal("EngineGen accepted an unregistered program")
	}
	e, err := interp.NewEngine(prog, interp.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != interp.EngineCompiled {
		t.Fatalf("EngineAuto picked %v for an unregistered program, want compiled", e.Kind())
	}
}

// TestGoldenRegistryFiles is the byte-for-byte determinism golden: the
// committed generated files must equal a fresh emission for the same
// program, and two emissions must be identical.
func TestGoldenRegistryFiles(t *testing.T) {
	cases := []struct {
		selftest string
		sym      string
		file     string
	}{
		{"arith", "STArith", "gen_selftest_arith.go"},
		{"chans", "STChans", "gen_selftest_chans.go"},
	}
	for _, c := range cases {
		prog, err := codegen.CompileSelfTest(c.selftest)
		if err != nil {
			t.Fatal(err)
		}
		src1, err := codegen.EngineSource(prog, "registry", c.sym)
		if err != nil {
			t.Fatal(err)
		}
		src2, err := codegen.EngineSource(prog, "registry", c.sym)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src1, src2) {
			t.Fatalf("%s: EngineSource is not deterministic", c.selftest)
		}
		committed, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src1, committed) {
			t.Fatalf("%s: committed %s is stale; run `go run ./cmd/esegen -registry`", c.selftest, c.file)
		}
	}
}

// TestProfilerReconciliationUnderGen pins the PR 3 invariant on the
// generated tier: a timed MP3 run under -exec=gen yields block counts
// whose profiler join reconciles bit-for-bit with the simulated per-PE
// cycle counters.
func TestProfilerReconciliationUnderGen(t *testing.T) {
	mb := pum.MicroBlaze()
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	d, err := apps.MP3Design("SW+1", apps.MP3Config{Frames: 1, Seed: 0xC0FFEE}, mb, cc)
	if err != nil {
		t.Fatal(err)
	}
	delays, est := fullTables(t, d)
	res, err := tlm.Run(d, tlm.Options{
		Timed:    true,
		WaitMode: tlm.WaitAtTransactions,
		Delays:   delays,
		Engine:   interp.EngineGen,
		Profile:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := profile.Build(d.Name, d.Program, res.BlockCountsByPE, est)
	if err != nil {
		t.Fatal(err)
	}
	for key, sub := range rep.ByPE {
		if want := float64(res.CyclesByPE[key]); sub != want {
			t.Errorf("ByPE[%q] = %v, want exactly %v (simulated under gen)", key, sub, want)
		}
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty profile report under gen")
	}
}
