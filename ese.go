// Package ese is the public API of the ESE-style cycle-approximate
// performance estimation toolset, a from-scratch reproduction of
// Hwang, Abdi, Gajski, "Cycle-approximate Retargetable Performance
// Estimation at the Transaction Level" (DATE 2008).
//
// The workflow mirrors the paper's flow (Figs. 1–3):
//
//	prog, _ := ese.CompileC("app.c", src)          // C front end -> CDFG
//	mb := ese.MicroBlazePUM()                      // or ese.LoadPUM(json)
//	mb, _ = ese.Calibrate(mb, trainProg, "main")   // statistical models
//	cfg, _ := mb.WithCache(ese.CacheCfg{ISize: 8192, DSize: 4096})
//	a, _ := ese.Annotate(prog, cfg)                // Algorithms 1 + 2
//	design := &ese.Design{...}                     // map processes to PEs
//	timed, _ := ese.RunTimedTLM(design)            // fast timed simulation
//	board, _ := ese.RunBoard(design)               // cycle-accurate reference
//	src, _ := ese.GenerateTLM(design)              // standalone Go TLM main.go
//	                                               // (GenerateTLMPackage: + go.mod)
//
// Under the hood the flow is a staged pipeline (Parse → Check → Lower →
// Simplify → Annotate → Build/Simulate) with a content-addressed
// schedule/estimate cache and a bounded annotation worker pool. For
// multi-configuration retarget sweeps, construct one Pipeline and push
// every configuration through it — Algorithm 1 schedules are computed
// once per (block, datapath) pair and reused across cache/branch
// configurations:
//
//	ctx := context.Background()
//	pl := ese.NewPipeline(ese.PipelineOptions{})
//	prog, _ := pl.Compile("app.c", src)
//	for _, cc := range ese.StandardCacheConfigs {
//		cfg, _ := mb.WithCache(cc)
//		a, _ := pl.AnnotateCtx(ctx, prog, cfg) // schedules reused after 1st
//		_ = a
//	}
//	fmt.Println(pl.Stats())                    // cache hit/miss counters
//
// The one-shot functions below (CompileC, Annotate, RunTimedTLM, ...) are
// thin wrappers over a process-wide default pipeline, which annotates at
// full detail. Every annotation goes through a pipeline; to annotate at
// another detail level, build one with PipelineOptions.Detail.
//
// All heavy lifting lives in internal packages; this package re-exports the
// stable surface a downstream user needs.
package ese

import (
	"context"
	"io"

	"ese/internal/annotate"
	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/codegen"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/engine"
	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/rtos"
	"ese/internal/tlm"
	"ese/internal/verify"
)

// Core IR and model types.
type (
	// Program is a lowered application (CDFG form).
	Program = cdfg.Program
	// Block is one basic block of the CDFG.
	Block = cdfg.Block
	// PUM is a processing unit model (§4.1 of the paper).
	PUM = pum.PUM
	// CacheCfg selects an I/D cache size configuration.
	CacheCfg = pum.CacheCfg
	// Estimate is a decomposed basic-block delay estimate.
	Estimate = core.Estimate
	// Detail selects which PUM sub-models estimation applies.
	Detail = core.Detail
	// Annotated is a timing-annotated program for one PE model.
	Annotated = annotate.Annotated
	// Design is a mapped multiprocessor platform.
	Design = platform.Design
	// PE is one processing element of a design.
	PE = platform.PE
	// TLMResult is the outcome of a TLM simulation.
	TLMResult = tlm.Result
	// BoardResult is the outcome of a cycle-accurate board simulation.
	BoardResult = rtl.BoardResult
)

// PE kinds.
const (
	Processor = platform.Processor
	HWUnit    = platform.HWUnit
)

// EngineKind selects the IR execution tier (PipelineOptions.Engine).
type EngineKind = interp.EngineKind

// Execution-engine tiers, fastest first: the pre-generated ahead-of-time
// tier, the flat compiled interpreter, and the tree-walking reference.
// EngineAuto (the zero value) picks the fastest tier that covers the
// program.
const (
	EngineAuto     = interp.EngineAuto
	EngineGen      = interp.EngineGen
	EngineCompiled = interp.EngineCompiled
	EngineTree     = interp.EngineTree
)

// Timed RTOS model (the paper's future-work extension): several tasks
// multiplexed onto one processor PE.
type (
	// SWTask is one RTOS-managed process on a processor PE.
	SWTask = platform.SWTask
	// RTOSConfig selects the scheduling policy, time slice and context
	// switch overhead of a multi-task PE.
	RTOSConfig = rtos.Config
)

// RTOS scheduling policies.
const (
	RTOSCooperative = rtos.Cooperative
	RTOSRoundRobin  = rtos.RoundRobin
	RTOSPriority    = rtos.PriorityPreemptive
)

// FullDetail applies every PUM sub-model, as the paper's Algorithm 2 does.
var FullDetail = core.FullDetail

// StandardCacheConfigs are the five I/D cache configurations of Tables 2–3.
var StandardCacheConfigs = pum.StandardCacheConfigs

// Staged pipeline (see internal/engine): explicit stages with a shared
// schedule/estimate cache and a bounded annotation worker pool.
type (
	// Pipeline is a staged estimation flow. Reuse one across a retarget
	// sweep so Algorithm 1 schedules are computed once per block.
	Pipeline = engine.Pipeline
	// PipelineOptions configures a Pipeline (workers, cache, detail,
	// strictness, fallback latency, watchdog timeout, verification).
	PipelineOptions = engine.Options
	// PipelineStats aggregates cache counters and degradation tallies.
	PipelineStats = engine.Stats
	// CacheStats reports schedule/estimate cache hit and miss counters.
	CacheStats = core.CacheStats
	// Diagnostic is one structured, stage-tagged pipeline diagnostic.
	Diagnostic = diag.Diagnostic
	// Diagnostics is a concurrency-safe diagnostic list (see
	// Pipeline.Diagnostics).
	Diagnostics = diag.List
)

// Typed failure sentinels: a cancelled or deadline-expired run returns an
// error matching one of these (errors.Is), alongside any partial result.
var (
	// ErrCanceled reports that a run was interrupted by context
	// cancellation.
	ErrCanceled = diag.ErrCanceled
	// ErrDeadline reports that a run exceeded its deadline or watchdog
	// timeout.
	ErrDeadline = diag.ErrDeadline
)

// NewPipeline constructs a staged estimation pipeline.
func NewPipeline(opts PipelineOptions) *Pipeline { return engine.New(opts) }

// defaultPipeline backs the package-level one-shot functions. It shares
// one process-wide cache, so repeated one-shot calls on identical content
// also reuse schedules.
var defaultPipeline = engine.New(engine.Options{})

// Simplify runs compiler-style CFG cleanup (jump threading, block
// merging) on a lowered program, growing basic blocks — see ablation A6
// for its effect on estimation accuracy.
func Simplify(prog *Program) { cdfg.SimplifyProgram(prog) }

// CompileC parses, checks and lowers a C-subset source into CDFG form.
func CompileC(name, src string) (*Program, error) {
	return defaultPipeline.Compile(name, src)
}

// Validation (see internal/verify): the static IR verifier, the PUM lint
// and the metamorphic/differential oracle suite. The same checks run
// inside the pipeline when PipelineOptions.Verify is set.

// VerifyProgram statically verifies a lowered program against the
// structural invariants every IR consumer assumes (terminators, target
// ownership, operand bounds, def-before-use, DFG acyclicity). An empty
// result means the program is well formed.
func VerifyProgram(prog *Program) []Diagnostic { return verify.Program(prog) }

// LintPUM lints a processing unit model: structural and statistical
// consistency plus op-mapping coverage against the classes the program
// uses, scoped to the given entry functions when provided.
func LintPUM(p *PUM, prog *Program, entries ...string) []Diagnostic {
	return verify.Model(p, prog, entries...)
}

// VerifyDesign verifies a mapped design end to end: the shared program,
// platform consistency, channel topology, and every PE's model linted
// against the op classes its own processes reach.
func VerifyDesign(d *Design) []Diagnostic { return verify.Design(d) }

// VerifyFailure returns the first diagnostic that fails a run under the
// -Werror convention: the first Error, or the first Warning when werror
// is set.
func VerifyFailure(ds []Diagnostic, werror bool) (Diagnostic, bool) {
	return verify.Failure(ds, werror)
}

// ValidationSuite runs the whole cross-model validation harness — static
// verification, the tree/compiled/board differential, the metamorphic
// estimator invariants and the seeded-mutation corpus — over every
// example design, writing a one-line summary per step to w. This is what
// `esebench -validate` runs.
func ValidationSuite(w io.Writer, frames int) error { return verify.Suite(w, frames) }

// MicroBlazePUM returns the built-in MicroBlaze-like processor model.
func MicroBlazePUM() *PUM { return pum.MicroBlaze() }

// CustomHWPUM returns a built-in custom-hardware datapath model.
func CustomHWPUM(name string, clockHz int64) *PUM { return pum.CustomHW(name, clockHz) }

// DualIssuePUM returns the built-in superscalar example model.
func DualIssuePUM() *PUM { return pum.DualIssue() }

// LoadPUM parses a JSON PUM description (the retargeting interface).
func LoadPUM(data []byte) (*PUM, error) { return pum.FromJSON(data) }

// Annotate estimates every basic block of the program against the PE model
// with full Algorithm 2 detail.
func Annotate(prog *Program, p *PUM) (*Annotated, error) {
	return defaultPipeline.AnnotateCtx(context.Background(), prog, p)
}

// EstimateBlock runs Algorithms 1 and 2 on a single basic block.
func EstimateBlock(b *Block, p *PUM) Estimate {
	return core.BlockDelay(b, p, core.FullDetail)
}

// Calibrate profiles a training process on the cycle-accurate board CPU for
// the standard cache configurations and returns a PUM with measured
// statistical memory and branch models.
func Calibrate(base *PUM, trainProg *Program, entry string) (*PUM, error) {
	return rtl.Calibrate(base, trainProg, entry, pum.StandardCacheConfigs, 0)
}

// DefaultBus returns the standard shared-bus parameters.
func DefaultBus() platform.Bus { return platform.DefaultBus() }

// RunFunctionalTLM executes the untimed TLM of a design.
func RunFunctionalTLM(d *Design) (*TLMResult, error) { return defaultPipeline.RunFunctional(d) }

// RunTimedTLM generates and executes the timed TLM of a design (per-block
// delays applied at transaction boundaries).
func RunTimedTLM(d *Design) (*TLMResult, error) { return defaultPipeline.RunTimed(d) }

// RunBoard runs the cycle-accurate full-system reference simulation.
func RunBoard(d *Design) (*BoardResult, error) { return rtl.RunBoard(d, 0) }

// GenerateTLM emits the Go source of the design's standalone timed TLM:
// the "main.go" of GenerateTLMPackage, which `esegen -o` writes and
// `esetlm -gen` prints for the same design.
func GenerateTLM(d *Design) (string, error) {
	files, err := GenerateTLMPackage(d, "gentlm")
	if err != nil {
		return "", err
	}
	return string(files["main.go"]), nil
}

// GenerateTLMPackage transpiles the design's annotated CDFG to a
// standalone, `go build`-able timed-TLM Go package — the ahead-of-time
// codegen path behind `esegen`. Each PE's program becomes native Go
// control flow with its per-block delays, annotated through the default
// pipeline exactly as RunTimedTLM annotates them, baked in as exact
// constants. The returned map holds the package files ("main.go",
// "go.mod"); the built binary prints the same canonical {cycles_by_pe,
// out_by_pe, steps} JSON summary that `esetlm -json` prints for the spec.
func GenerateTLMPackage(d *Design, module string) (map[string][]byte, error) {
	delays, _, err := defaultPipeline.DelaysCtx(context.Background(), d, defaultPipeline.Detail())
	if err != nil {
		return nil, err
	}
	return codegen.StandaloneFiles(d, delays, module)
}

// RunInterp executes a single process functionally (reference semantics)
// and returns its out() stream.
func RunInterp(prog *Program, entry string) ([]int32, error) {
	m := interp.New(prog)
	if err := m.Run(entry); err != nil {
		return nil, err
	}
	return append([]int32(nil), m.Out...), nil
}

// ISSCycles runs the interpreted instruction-set simulator baseline on a
// single process and returns its cycle estimate.
func ISSCycles(prog *Program, entry string, cc CacheCfg) (uint64, error) {
	isa, err := iss.Generate(prog)
	if err != nil {
		return 0, err
	}
	m := iss.NewMachine(isa)
	if err := m.Start(entry); err != nil {
		return 0, err
	}
	s := iss.NewISS(m, iss.DefaultTiming(cc.ISize, cc.DSize))
	if err := s.Run(0); err != nil {
		return 0, err
	}
	return s.Cycles, nil
}

// BoardCycles runs the cycle-accurate CPU model on a single process and
// returns the measured cycles (the "board measurement" of a SW design).
func BoardCycles(prog *Program, entry string, p *PUM, cc CacheCfg) (uint64, error) {
	isa, err := iss.Generate(prog)
	if err != nil {
		return 0, err
	}
	m := iss.NewMachine(isa)
	if err := m.Start(entry); err != nil {
		return 0, err
	}
	cpu, err := rtl.NewCPU(m, rtl.CPUConfig{
		Model:  p,
		ICache: rtl.RealCacheConfig(cc.ISize),
		DCache: rtl.RealCacheConfig(cc.DSize),
	})
	if err != nil {
		return 0, err
	}
	if err := cpu.Run(0); err != nil {
		return 0, err
	}
	return cpu.Cycles, nil
}

// MP3 evaluation application (the paper's workload).

// MP3Config parameterizes the generated MP3-like workload.
type MP3Config = apps.MP3Config

// MP3Designs lists the paper's design names: SW, SW+1, SW+2, SW+4.
var MP3Designs = apps.MP3DesignNames

// MP3Source generates the C source of one MP3 design variant.
func MP3Source(design string, cfg MP3Config) (string, error) { return apps.MP3Source(design, cfg) }

// MP3Design builds the mapped platform for one MP3 design variant.
func MP3Design(design string, cfg MP3Config, mb *PUM, cc CacheCfg) (*Design, error) {
	return apps.MP3Design(design, cfg, mb, cc)
}

// JPEGConfig parameterizes the JPEG-like encoder, the secondary workload.
type JPEGConfig = apps.JPEGConfig

// JPEGSource generates the C source of the JPEG-like encoder.
func JPEGSource(cfg JPEGConfig) string { return apps.JPEGSource(cfg) }

// MediaSource combines the MP3 decoder (entry "main") and the JPEG encoder
// (entry "jpeg_main") into one translation unit, for RTOS consolidation
// studies.
func MediaSource(design string, mp3 MP3Config, jpeg JPEGConfig) (string, error) {
	return apps.MediaSource(design, mp3, jpeg)
}
