package interp

import (
	"context"
	"fmt"

	"ese/internal/cdfg"
)

// EngineKind selects the execution engine behind a TLM process.
type EngineKind int

const (
	// EngineAuto picks the fastest tier for the program: the ahead-of-time
	// generated engine when one is registered for the program's code
	// fingerprint, else the flat compiled engine — the default.
	EngineAuto EngineKind = iota
	// EngineCompiled requires the flat compiled engine.
	EngineCompiled
	// EngineTree forces the tree-walking reference interpreter.
	EngineTree
	// EngineGen requires an ahead-of-time generated engine (emitted by
	// esegen and registered by fingerprint).
	EngineGen
)

func (k EngineKind) String() string {
	switch k {
	case EngineAuto:
		return "auto"
	case EngineCompiled:
		return "compiled"
	case EngineTree:
		return "tree"
	case EngineGen:
		return "gen"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// ParseEngineKind parses an -exec flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "gen":
		return EngineGen, nil
	case "compiled":
		return EngineCompiled, nil
	case "tree":
		return EngineTree, nil
	}
	return EngineAuto, fmt.Errorf("unknown execution engine %q (want auto, gen, compiled or tree)", s)
}

// Engine is the execution surface the TLM layer drives: run an entry
// function with channel intrinsics bound, fused per-block timing, and
// harvestable out/step/profile state. Machine (via the tree adapter) and
// Compiled both satisfy it with identical observable behavior.
type Engine interface {
	// Run executes the named entry function with no arguments.
	Run(entry string) error
	// Reset re-initializes globals, the out stream and all counters.
	Reset()
	// Kind reports which engine this is.
	Kind() EngineKind
	// OutStream returns the out() intrinsic's stream.
	OutStream() []int32
	// StepCount returns the dynamic IR instruction count.
	StepCount() uint64
	// BlockCountsMap returns per-block execution counts (nil unless
	// EnableProfile was called); only executed blocks appear.
	BlockCountsMap() map[*cdfg.Block]uint64
	// EnableProfile turns on per-block execution counting.
	EnableProfile()
	// SetLimit sets the dynamic step limit (0 = none).
	SetLimit(n uint64)
	// SetContext bounds execution by ctx.
	SetContext(ctx context.Context)
	// SetChannels installs the send/recv intrinsics.
	SetChannels(send func(ch int, data []int32) error, recv func(ch int, buf []int32) error)
	// SetDelays installs the annotated per-block delays (timed runs): one
	// per block in dense program order (functions in order, each
	// function's blocks in order), or nil for none. The engine only reads
	// the slice. By default each executed block's delay accumulates into a
	// pending pool drained with TakePending at transaction boundaries.
	SetDelays(delays []float64)
	// SetOnDelay switches to per-block delivery: fn observes every dynamic
	// block's delay (including zero) instead of pooling. Call after
	// SetDelays.
	SetOnDelay(fn func(delay float64) error)
	// TakePending returns and clears the pooled delay cycles.
	TakePending() float64
}

// NewEngine builds an execution engine for prog. EngineAuto prefers the
// registered generated engine, then the compiled engine; a program the
// compiler rejects (an IR shape the lowering never emits) fails with the
// same error under EngineAuto as under EngineCompiled. EngineTree stays
// available for every program.
func NewEngine(prog *cdfg.Program, kind EngineKind) (Engine, error) {
	switch kind {
	case EngineTree:
		return newTreeEngine(prog), nil
	case EngineGen:
		if f := GeneratedFor(prog); f != nil {
			return f(prog), nil
		}
		return nil, fmt.Errorf("interp: no generated engine registered for this program (regenerate with `esegen -registry`, or use -exec=auto)")
	case EngineAuto:
		if f := GeneratedFor(prog); f != nil {
			return f(prog), nil
		}
	}
	cp, err := CompileCached(prog)
	if err != nil {
		return nil, err
	}
	return NewCompiled(cp), nil
}

// checkDelays panics unless delays is nil or holds one delay per block of
// prog: a table of another program is a caller bug that would otherwise
// time blocks with the wrong delays.
func checkDelays(prog *cdfg.Program, delays []float64) {
	if delays != nil && len(delays) != prog.NumBlocks() {
		panic(fmt.Sprintf("interp: SetDelays: %d delays for a program of %d blocks", len(delays), prog.NumBlocks()))
	}
}

// treeEngine adapts the tree-walking Machine to the Engine interface,
// reproducing the delay-pooling contract with an OnBlock closure.
type treeEngine struct {
	m      *Machine
	delays []float64
	// index resolves a block to its dense index; built by SetDelays.
	index   map[*cdfg.Block]int
	onDelay func(delay float64) error
	pending float64
}

func newTreeEngine(prog *cdfg.Program) *treeEngine {
	return &treeEngine{m: New(prog)}
}

// Machine exposes the underlying tree-walker.
func (e *treeEngine) Machine() *Machine { return e.m }

func (e *treeEngine) Run(entry string) error { return e.m.Run(entry) }

func (e *treeEngine) Reset() {
	e.m.Reset()
	e.pending = 0
}

func (e *treeEngine) Kind() EngineKind { return EngineTree }

func (e *treeEngine) OutStream() []int32 { return e.m.Out }

func (e *treeEngine) StepCount() uint64 { return e.m.Steps }

func (e *treeEngine) BlockCountsMap() map[*cdfg.Block]uint64 { return e.m.BlockCounts }

func (e *treeEngine) EnableProfile() { e.m.EnableProfile() }

func (e *treeEngine) SetLimit(n uint64) { e.m.Limit = n }

func (e *treeEngine) SetContext(ctx context.Context) { e.m.Ctx = ctx }

func (e *treeEngine) SetChannels(send func(ch int, data []int32) error, recv func(ch int, buf []int32) error) {
	e.m.Send, e.m.Recv = send, recv
}

func (e *treeEngine) SetDelays(delays []float64) {
	checkDelays(e.m.Prog, delays)
	e.delays = delays
	if delays != nil && e.index == nil {
		e.index = make(map[*cdfg.Block]int, len(delays))
		for _, fn := range e.m.Prog.Funcs {
			for _, b := range fn.Blocks {
				e.index[b] = len(e.index)
			}
		}
	}
	e.install()
}

func (e *treeEngine) SetOnDelay(fn func(delay float64) error) {
	e.onDelay = fn
	e.install()
}

func (e *treeEngine) install() {
	delays, index := e.delays, e.index
	switch {
	case delays == nil:
		e.m.OnBlock = nil
	case e.onDelay != nil:
		fn := e.onDelay
		e.m.OnBlock = func(b *cdfg.Block) error { return fn(delays[index[b]]) }
	default:
		e.m.OnBlock = func(b *cdfg.Block) error { e.pending += delays[index[b]]; return nil }
	}
}

func (e *treeEngine) TakePending() float64 {
	p := e.pending
	e.pending = 0
	return p
}
