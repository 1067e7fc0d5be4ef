package interp

import (
	"context"
	"fmt"
	"sync"

	"ese/internal/cdfg"
	"ese/internal/diag"
)

// This file is the runtime side of the ahead-of-time codegen engine tier:
// the registry that maps a program's code fingerprint to its generated
// engine factory, and GenBase, the state/bookkeeping core every generated
// engine embeds. The generated code itself lives in
// internal/codegen/registry (emitted by `esegen -registry`); its per-block
// prologues replicate the tree-walker's observable order exactly —
// profile count, delay hook, step count, limit check, context check —
// so all three engine tiers agree bit-for-bit on Out/Steps/CyclesByPE
// and on error text.

// GenFactory builds a generated engine bound to a live program. The
// program must have the code fingerprint the factory was generated for;
// global sizes and initializers are read from it at construction and on
// Reset, which is how one generated engine serves every workload
// configuration of the same source template.
type GenFactory func(prog *cdfg.Program) Engine

var (
	genMu  sync.RWMutex
	genReg = make(map[cdfg.Fingerprint]GenFactory)
)

// RegisterGen installs a generated engine factory under a full-hex code
// fingerprint. Called from init functions of generated code; a malformed
// key is a generator bug and panics loudly.
func RegisterGen(fpHex string, factory GenFactory) {
	var fp cdfg.Fingerprint
	if len(fpHex) != 2*len(fp) {
		panic(fmt.Sprintf("interp: RegisterGen: bad fingerprint %q", fpHex))
	}
	for i := 0; i < len(fp); i++ {
		hi, lo := hexVal(fpHex[2*i]), hexVal(fpHex[2*i+1])
		if hi < 0 || lo < 0 {
			panic(fmt.Sprintf("interp: RegisterGen: bad fingerprint %q", fpHex))
		}
		fp[i] = byte(hi<<4 | lo)
	}
	genMu.Lock()
	genReg[fp] = factory
	genMu.Unlock()
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// GeneratedFor returns the registered factory for the program's code
// fingerprint, or nil when no generated engine covers it. The fingerprint
// is memoized on the program, so the TLM layer's one engine per process
// hashes a program once.
func GeneratedFor(prog *cdfg.Program) GenFactory {
	fp := prog.CodeFingerprint()
	genMu.RLock()
	f := genReg[fp]
	genMu.RUnlock()
	return f
}

// GenBase is the runtime core of a generated engine: everything the
// Engine interface needs except Run, Reset and the function bodies, which
// the generator emits. All hot fields are exported because the generated
// code lives in another package. The per-block bookkeeping stays in
// struct fields (never hoisted into locals), so the engine state is
// coherent at every send/recv/onDelay callback exactly like the
// tree-walker's.
type GenBase struct {
	Prog   *cdfg.Program
	Blocks []*cdfg.Block // dense program-wide order (same as the compiled engine's)
	Out    []int32

	SendFn func(ch int, data []int32) error
	RecvFn func(ch int, buf []int32) error

	// DelayTab is indexed by dense block id; all zeros until SetDelays.
	DelayTab []float64
	// OnDelayFn is the effective per-block delay hook: non-nil only when
	// both SetDelays and SetOnDelay were called, mirroring the
	// tree-walker, which ignores the hook while no delays are installed.
	OnDelayFn func(delay float64) error
	onDelay   func(delay float64) error
	hasDelays bool

	Pend      float64
	Counts    []uint64 // dense block counts; nil unless EnableProfile
	NSteps    uint64
	Lim       uint64
	Ctx       context.Context
	Countdown uint64
}

// InitGen binds the base to a live program, building the dense block
// index in the compiled engine's numbering order.
func (g *GenBase) InitGen(prog *cdfg.Program) {
	g.Prog = prog
	n := prog.NumBlocks()
	g.Blocks = make([]*cdfg.Block, 0, n)
	for _, fn := range prog.Funcs {
		g.Blocks = append(g.Blocks, fn.Blocks...)
	}
	g.DelayTab = make([]float64, len(g.Blocks))
}

// ResetBase clears the out stream and every counter; generated Reset
// methods call it and then re-initialize their global state from Prog.
func (g *GenBase) ResetBase() {
	g.Out = g.Out[:0]
	g.NSteps = 0
	g.Countdown = 0
	g.Pend = 0
	for i := range g.Counts {
		g.Counts[i] = 0
	}
}

// Kind reports the generated tier.
func (g *GenBase) Kind() EngineKind { return EngineGen }

// OutStream returns the out() intrinsic's stream.
func (g *GenBase) OutStream() []int32 { return g.Out }

// StepCount returns the dynamic IR instruction count.
func (g *GenBase) StepCount() uint64 { return g.NSteps }

// BlockCountsMap converts the dense profile counters into the map form of
// the Engine contract; only executed blocks appear.
func (g *GenBase) BlockCountsMap() map[*cdfg.Block]uint64 {
	if g.Counts == nil {
		return nil
	}
	m := make(map[*cdfg.Block]uint64, len(g.Counts))
	for i, c := range g.Counts {
		if c != 0 {
			m[g.Blocks[i]] = c
		}
	}
	return m
}

// EnableProfile turns on per-block execution counting (idempotent).
func (g *GenBase) EnableProfile() {
	if g.Counts == nil {
		g.Counts = make([]uint64, len(g.Blocks))
	}
}

// SetLimit sets the dynamic step limit (0 = none).
func (g *GenBase) SetLimit(n uint64) { g.Lim = n }

// SetContext bounds execution by ctx.
func (g *GenBase) SetContext(ctx context.Context) { g.Ctx = ctx }

// SetChannels installs the send/recv intrinsics.
func (g *GenBase) SetChannels(send func(ch int, data []int32) error, recv func(ch int, buf []int32) error) {
	g.SendFn, g.RecvFn = send, recv
}

// SetDelays copies the annotated per-block delays into the dense table
// (nil clears it).
func (g *GenBase) SetDelays(delays []float64) {
	checkDelays(g.Prog, delays)
	g.hasDelays = delays != nil
	if delays == nil {
		clear(g.DelayTab)
	} else {
		copy(g.DelayTab, delays)
	}
	g.installDelay()
}

// SetOnDelay switches to per-block delay delivery (see Engine).
func (g *GenBase) SetOnDelay(fn func(delay float64) error) {
	g.onDelay = fn
	g.installDelay()
}

func (g *GenBase) installDelay() {
	if g.hasDelays {
		g.OnDelayFn = g.onDelay
	} else {
		g.OnDelayFn = nil
	}
}

// TakePending returns and clears the pooled delay cycles.
func (g *GenBase) TakePending() float64 {
	p := g.Pend
	g.Pend = 0
	return p
}

// CtxCheck refills the countdown and translates the context state; the
// generated prologue calls it only when the countdown expires, keeping
// the hot path to one comparison.
func (g *GenBase) CtxCheck() error {
	g.Countdown = ctxCheckSteps
	return diag.FromContext(g.Ctx)
}

// ---------------------------------------------------------------------------
// Runtime helpers called from generated code. The error constructors
// reproduce the tree-walker's diagnostics byte-for-byte; the arithmetic
// helpers reproduce cfront.FoldBinary's division semantics.

// RtDiv is the IR division: x/0 folds to 0 and MinInt32/-1 to MinInt32,
// matching cfront.FoldBinary.
func RtDiv(a, b int32) int32 {
	if b == 0 {
		return 0
	}
	if a == -2147483648 && b == -1 {
		return a
	}
	return a / b
}

// RtRem is the IR remainder: x%0 folds to 0 and MinInt32%-1 to 0.
func RtRem(a, b int32) int32 {
	if b == 0 {
		return 0
	}
	if a == -2147483648 && b == -1 {
		return 0
	}
	return a % b
}

// RtBool converts a comparison result to the IR's 0/1 encoding.
func RtBool(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// GenNoFunc reports a missing entry function.
func GenNoFunc(name string) error {
	return fmt.Errorf("interp: no function %q", name)
}

// GenEntryParams reports an entry function that takes parameters.
func GenEntryParams(name string) error {
	return fmt.Errorf("interp: entry %q must take no parameters", name)
}

// GenOOB reports an array index out of range.
func GenOOB(pos string, idx int32, n int, fn string) error {
	return fmt.Errorf("interp: %s: index %d out of range [0,%d) in %s", pos, idx, n, fn)
}

// GenSendRange reports a send word count out of range.
func GenSendRange(pos string, n int32, ln int) error {
	return fmt.Errorf("interp: %s: send count %d out of range [0,%d]", pos, n, ln)
}

// GenRecvRange reports a recv word count out of range.
func GenRecvRange(pos string, n int32, ln int) error {
	return fmt.Errorf("interp: %s: recv count %d out of range [0,%d]", pos, n, ln)
}

// GenNoChan reports a send/recv without a channel binding.
func GenNoChan(pos, what string, ch int) error {
	return fmt.Errorf("interp: %s: %s on channel %d: process has no channel binding", pos, what, ch)
}

// GenFellThrough reports a block without a terminator.
func GenFellThrough(id int, fn string) error {
	return fmt.Errorf("interp: block bb%d of %s fell through without terminator", id, fn)
}

// GenInitScalar reads a scalar global's initial value from the live
// program.
func GenInitScalar(g *cdfg.Global) int32 {
	if len(g.Init) > 0 {
		return g.Init[0]
	}
	return 0
}

// GenInitArray (re)initializes an array global's backing from the live
// program, reusing the buffer across Resets when the size is unchanged.
func GenInitArray(buf []int32, g *cdfg.Global) []int32 {
	if int32(len(buf)) != g.Size {
		buf = make([]int32, g.Size)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	copy(buf, g.Init)
	return buf
}
