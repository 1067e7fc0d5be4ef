// Benchmarks of one layer each: the Table 1 columns (timed and
// functional simulation, annotation, the ISS and the board), the wait-
// granularity ablation's per-block simulation, the accuracy scorer and
// one of its board passes, and microbenchmarks of every engine in the
// stack. Run with:
//
//	go test -run='^$' -bench=. -benchmem .
//
// Simulation benches report simulated cycles as a custom metric next to
// the wall-clock numbers. The accuracy numbers of Tables 2–3 and the
// ablations come from esebench, and BENCH_accuracy.json gates them.
package ese

import (
	"context"
	"testing"

	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/engine"
	"ese/internal/experiments"
	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/sim"
	"ese/internal/tlm"
)

// benchEval is the workload for benchmarks: one frame keeps -bench=. runs
// in seconds; scale with esebench -frames for longer experiments.
var benchEval = apps.MP3Config{Frames: 1, Seed: apps.DefaultMP3.Seed}

var benchSetupCache *experiments.Setup

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	if benchSetupCache == nil {
		s, err := experiments.NewSetup(context.Background(), benchEval.Frames, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSetupCache = s
	}
	return benchSetupCache
}

func benchDesign(b *testing.B, s *experiments.Setup, name string, cc pum.CacheCfg) *Design {
	b.Helper()
	d, err := apps.MP3Design(name, s.Eval, s.MB, cc)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

var benchCache = pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}

// benchDelays takes a design's delay tables from the setup's pipeline;
// callers keep it outside the timer.
func benchDelays(b *testing.B, s *experiments.Setup, d *Design) map[string][]float64 {
	b.Helper()
	dm, _, err := s.Pipe.DelaysCtx(context.Background(), d)
	if err != nil {
		b.Fatal(err)
	}
	return dm
}

// ---- Table 1: scalability (per-design simulation speed) ----

// benchTimedTLM times the simulation stage alone under the default
// execution tier: delays are precomputed once outside the timer (the paper
// reports annotation and simulation as separate columns). Per-tier
// (tree/compiled/gen) numbers are recorded by esebench -bench-json.
func benchTimedTLM(b *testing.B, design string) {
	s := benchSetup(b)
	d := benchDesign(b, s, design, benchCache)
	opts := tlm.Options{
		Timed:    true,
		WaitMode: tlm.WaitAtTransactions,
		Delays:   benchDelays(b, s, d),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tlm.Run(d, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EndCycles(d.Bus.ClockHz)), "sim-cycles")
	}
}

func BenchmarkTable1_TimedTLM_SW(b *testing.B)  { benchTimedTLM(b, "SW") }
func BenchmarkTable1_TimedTLM_SW1(b *testing.B) { benchTimedTLM(b, "SW+1") }
func BenchmarkTable1_TimedTLM_SW2(b *testing.B) { benchTimedTLM(b, "SW+2") }
func BenchmarkTable1_TimedTLM_SW4(b *testing.B) { benchTimedTLM(b, "SW+4") }

func BenchmarkTable1_FunctionalTLM_SW4(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlm.Run(d, tlm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Annotation_SW4(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pe := range d.PEs {
			if _, err := core.EstimateBlocksCtx(context.Background(), d.Program, pe.PUM, core.FullDetail, core.EstOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1_ISS_SW(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW", benchCache)
	isa, err := iss.Generate(d.Program)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles, err := rtl.ISSCycles(context.Background(), isa, "main", []pum.CacheCfg{benchCache})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cycles[0]), "sim-cycles")
	}
}

func benchPCAM(b *testing.B, design string) {
	s := benchSetup(b)
	d := benchDesign(b, s, design, benchCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rtl.RunBoard(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.EndCycles(d.Bus.ClockHz)), "sim-cycles")
	}
}

func BenchmarkTable1_PCAM_SW(b *testing.B)  { benchPCAM(b, "SW") }
func BenchmarkTable1_PCAM_SW4(b *testing.B) { benchPCAM(b, "SW+4") }

// ---- The accuracy scorer ----

// BenchmarkBoardPass_MP3SW is one of the scorer's board passes: MP3 SW at
// the committed scoreboard's size, one functional pass timing the five
// standard cache configurations (rtl.RunBoards).
func BenchmarkBoardPass_MP3SW(b *testing.B) {
	w := calib.Workload{App: "mp3", Design: "SW", Size: apps.DefaultMP3.Frames, Seed: apps.DefaultMP3.Seed}
	e, _, err := new(calib.Memo).Entry(context.Background(), w)
	if err != nil {
		b.Fatal(err)
	}
	ds := make([]*platform.Design, len(pum.StandardCacheConfigs))
	for i, cc := range pum.StandardCacheConfigs {
		d, err := e.Design(pum.MicroBlaze(), cc)
		if err != nil {
			b.Fatal(err)
		}
		ds[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtl.RunBoards(context.Background(), ds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreboard is the whole scorer at the committed matrix, the
// workload of BENCH_accuracy.json: calibration, board passes, recordings
// and 90 estimates (calib.RunScoreboard).
func BenchmarkScoreboard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := calib.RunScoreboard(calib.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation A2: per-block waits ----

// BenchmarkAblationGranularity_PerBlock is the expensive side of the
// wait-granularity ablation; BenchmarkTable1_TimedTLM_SW4 is the other.
func BenchmarkAblationGranularity_PerBlock(b *testing.B) {
	s := benchSetup(b)
	d := benchDesign(b, s, "SW+4", benchCache)
	opts := tlm.Options{Timed: true, WaitMode: tlm.WaitPerBlock, Delays: benchDelays(b, s, d)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlm.Run(d, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Engine microbenchmarks ----

func BenchmarkEngine_Interp(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(prog)
		if err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Steps)) // "bytes" = dynamic IR ops, for MB/s-style rates
	}
}

// BenchmarkEngine_Compiled is the flat engine on the same program: one
// machine reused across iterations (Reset), the pattern the TLM layer's
// steady state resembles once frame pools are warm.
func BenchmarkEngine_Compiled(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := interp.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	m := interp.NewCompiled(cp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.StepCount()))
	}
}

func BenchmarkEngine_ISAMachine(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := iss.NewMachine(isa)
		if err := m.Start("main"); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Steps))
	}
}

func BenchmarkEngine_ScheduleAlgorithm1(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model := pum.MicroBlaze()
	var dfgs []*cdfg.DFG
	for _, fn := range prog.Funcs {
		for _, blk := range fn.Blocks {
			dfgs = append(dfgs, cdfg.BuildDFG(blk))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dfgs {
			core.Schedule(d, model)
		}
	}
}

// ---- Staged pipeline: parallel and memoized annotation ----

// BenchmarkAnnotateSerial is the reference single-worker, uncached
// estimation pass over the MP3 SW program.
func BenchmarkAnnotateSerial(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateBlocksCtx(context.Background(), prog, model, core.FullDetail, core.EstOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnotateParallel is the same pass through the bounded worker
// pool (GOMAXPROCS workers), still uncached.
func BenchmarkAnnotateParallel(b *testing.B) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	model, err := pum.MicroBlaze().WithCache(benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateBlocksCtx(context.Background(), prog, model, core.FullDetail, core.EstOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep annotates the MP3 SW program for every standard cache
// configuration through one pipeline (shared or fresh per iteration).
func benchSweep(b *testing.B, fresh bool) {
	prog, err := apps.CompileMP3("SW", benchEval)
	if err != nil {
		b.Fatal(err)
	}
	base := pum.MicroBlaze()
	models := make([]*pum.PUM, 0, len(pum.StandardCacheConfigs))
	for _, cc := range pum.StandardCacheConfigs {
		m, err := base.WithCache(cc)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	pl := NewPipeline(PipelineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			pl = NewPipeline(PipelineOptions{})
		}
		for _, m := range models {
			if _, err := pl.AnnotateCtx(context.Background(), prog, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	cs := pl.Stats()
	b.ReportMetric(float64(cs.SchedHits), "sched-hits")
	b.ReportMetric(float64(cs.SchedMisses), "sched-misses")
}

// BenchmarkRetargetSweepCold rebuilds the cache every sweep: each
// iteration pays one full schedule pass plus four statistical
// recompositions (the paper's retargeting workflow from scratch).
func BenchmarkRetargetSweepCold(b *testing.B) { benchSweep(b, true) }

// BenchmarkRetargetSweepCached shares one pipeline across iterations, so
// after the first sweep every schedule and estimate is served from cache.
func BenchmarkRetargetSweepCached(b *testing.B) { benchSweep(b, false) }

// BenchmarkEngine_CompileMP3 times what a new MP3 workload costs: its
// bitstream and one copy of the design's compiled template.
func BenchmarkEngine_CompileMP3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := apps.CompileMP3("SW", benchEval); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_CompileMP3Source times the C front end on the generated
// source (generate, parse, check, lower), the path tenant programs and
// esegen still take.
func BenchmarkEngine_CompileMP3Source(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src, err := apps.MP3Source("SW", benchEval)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apps.Compile("mp3_SW.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_KernelPingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		ping := k.NewEvent("ping")
		pong := k.NewEvent("pong")
		const rounds = 1000
		k.Spawn("a", func(p *sim.Process) {
			for r := 0; r < rounds; r++ {
				ping.Notify(1)
				p.WaitEvent(pong)
			}
		})
		k.Spawn("b", func(p *sim.Process) {
			for r := 0; r < rounds; r++ {
				p.WaitEvent(ping)
				pong.Notify(1)
			}
		})
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_CacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Size: 8192, LineBytes: 16, Assoc: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*52) & 0xFFFF)
	}
}
