package interp

import (
	"context"
	"fmt"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/diag"
)

// Compiled executes one process against the flat pre-resolved form produced
// by Compile. It is behaviorally identical to Machine — same Out stream,
// Steps accounting, step-limit and cancellation points, and error strings —
// but runs a tight loop over pre-resolved register indices with frames
// recycled through per-function free lists, so the steady state allocates
// nothing.
//
// A Compiled machine is single-goroutine, like Machine; the underlying
// CompiledProgram is immutable and safely shared across machines.
type Compiled struct {
	cp     *CompiledProgram
	gwords []int32   // scalar globals, one word each
	garrs  [][]int32 // array globals
	out    []int32

	send func(ch int, data []int32) error
	recv func(ch int, buf []int32) error

	// Fused timing: delays is the dense per-block delay table (nil when
	// untimed). With onDelay nil the delay accumulates into pending
	// (transaction-boundary waits); otherwise onDelay observes every block's
	// delay (per-block waits, RTOS preemption points).
	delays  []float64
	onDelay func(delay float64) error
	pending float64

	counts []uint64 // dense per-block execution counts (nil unless profiling)

	steps        uint64
	limit        uint64
	ctx          context.Context
	ctxCountdown uint64

	pools [][]*cframe // per-function frame free lists
}

// cframe is one pooled activation record.
type cframe struct {
	regs    []int32
	arrs    [][]int32
	backing []int32 // local-array storage; zeroed on release
}

// NewCompiled creates a machine with globals initialized from the compiled
// program.
func NewCompiled(cp *CompiledProgram) *Compiled {
	m := &Compiled{
		cp:     cp,
		gwords: append([]int32(nil), cp.gwords...),
		garrs:  make([][]int32, len(cp.garrs)),
		pools:  make([][]*cframe, len(cp.funcs)),
	}
	for i, g := range cp.garrs {
		buf := make([]int32, g.size)
		copy(buf, g.init)
		m.garrs[i] = buf
	}
	return m
}

// Kind reports EngineCompiled.
func (m *Compiled) Kind() EngineKind { return EngineCompiled }

// Program returns the source CDFG program.
func (m *Compiled) Program() *cdfg.Program { return m.cp.src }

// OutStream returns the stream written by the out() intrinsic.
func (m *Compiled) OutStream() []int32 { return m.out }

// StepCount returns the dynamically executed IR instruction count.
func (m *Compiled) StepCount() uint64 { return m.steps }

// SetLimit sets the dynamic step limit (0 = none).
func (m *Compiled) SetLimit(n uint64) { m.limit = n }

// SetContext bounds execution by ctx, checked every few thousand steps.
func (m *Compiled) SetContext(ctx context.Context) { m.ctx = ctx }

// SetChannels installs the communication intrinsics.
func (m *Compiled) SetChannels(send func(ch int, data []int32) error, recv func(ch int, buf []int32) error) {
	m.send, m.recv = send, recv
}

// EnableProfile turns on per-block execution counting (idempotent).
func (m *Compiled) EnableProfile() {
	if m.counts == nil {
		m.counts = make([]uint64, m.cp.NumBlocks())
	}
}

// BlockCountsMap converts the dense counters back to the map shape the
// profiler consumes; blocks that never executed are omitted, matching the
// tree-walker's map contents exactly.
func (m *Compiled) BlockCountsMap() map[*cdfg.Block]uint64 {
	if m.counts == nil {
		return nil
	}
	out := make(map[*cdfg.Block]uint64)
	for id, n := range m.counts {
		if n != 0 {
			out[m.cp.blocks[id]] = n
		}
	}
	return out
}

// SetDelays fuses the annotated per-block delays into the machine: the
// dense table is indexed directly by block id, which numbers blocks in the
// same dense program order.
func (m *Compiled) SetDelays(delays []float64) {
	checkDelays(m.cp.src, delays)
	m.delays = delays
}

// SetOnDelay switches to per-block delay delivery: fn observes every
// dynamic block's delay (including zero) instead of accumulation into the
// pending pool. Requires SetDelays.
func (m *Compiled) SetOnDelay(fn func(delay float64) error) { m.onDelay = fn }

// TakePending returns and clears the accumulated delay cycles.
func (m *Compiled) TakePending() float64 {
	p := m.pending
	m.pending = 0
	return p
}

// Reset re-initializes globals, the out stream and the counters. Frame
// pools survive a reset.
func (m *Compiled) Reset() {
	copy(m.gwords, m.cp.gwords)
	for i, g := range m.cp.garrs {
		buf := m.garrs[i]
		clear(buf)
		copy(buf, g.init)
	}
	m.out = m.out[:0]
	m.steps = 0
	m.ctxCountdown = 0
	m.pending = 0
	clear(m.counts)
}

// Run executes the named entry function with no arguments.
func (m *Compiled) Run(entry string) error {
	fi, ok := m.cp.byName[entry]
	if !ok {
		return fmt.Errorf("interp: no function %q", entry)
	}
	fn := m.cp.funcs[fi]
	if len(fn.params) != 0 {
		return fmt.Errorf("interp: entry %q must take no parameters", entry)
	}
	fr := m.frame(fi)
	_, err := m.exec(fn, fr)
	m.release(fi, fr)
	return err
}

// frame pops a recycled activation record for function fi, or builds one.
// Registers are (re)initialized from the function's template — zeros plus
// the materialized constant pool; local-array backing is already zero
// (cleared on release).
func (m *Compiled) frame(fi int) *cframe {
	fn := m.cp.funcs[fi]
	pool := m.pools[fi]
	if n := len(pool); n > 0 {
		fr := pool[n-1]
		m.pools[fi] = pool[:n-1]
		copy(fr.regs, fn.regInit)
		return fr
	}
	fr := &cframe{
		regs:    append([]int32(nil), fn.regInit...),
		arrs:    make([][]int32, len(fn.arrs)),
		backing: make([]int32, fn.backing),
	}
	for i, a := range fn.arrs {
		if !a.isParam {
			fr.arrs[i] = fr.backing[a.off : a.off+a.size : a.off+a.size]
		}
	}
	return fr
}

// release zeroes the frame's local-array storage and returns it to the pool.
// Parameter array bindings are left stale; every call rebinds them before
// execution.
func (m *Compiled) release(fi int, fr *cframe) {
	clear(fr.backing)
	m.pools[fi] = append(m.pools[fi], fr)
}

// ld reads a scalar operand: non-negative indices are frame registers,
// negative ones are complement-encoded global words.
func (m *Compiled) ld(regs []int32, ix int32) int32 {
	if ix >= 0 {
		return regs[ix]
	}
	return m.gwords[^ix]
}

// st writes a scalar operand.
func (m *Compiled) st(regs []int32, ix, v int32) {
	if ix >= 0 {
		regs[ix] = v
		return
	}
	m.gwords[^ix] = v
}

// arrOf resolves an array operand to its backing slice.
func (m *Compiled) arrOf(fr *cframe, ix int32) []int32 {
	if ix >= 0 {
		return fr.arrs[ix]
	}
	return m.garrs[^ix]
}

func (m *Compiled) runtimeErr(pos cfront.Pos, format string, args ...any) error {
	return fmt.Errorf("interp: %s: %s", pos, fmt.Sprintf(format, args...))
}

// flushHot writes the exec loop's hoisted accumulators back to the machine.
// Every path that leaves the loop — returns, callbacks that may observe or
// drain them (TakePending from a channel wrapper), recursive calls — flushes
// first.
func (m *Compiled) flushHot(steps uint64, pending float64, countdown uint64) {
	m.steps = steps
	m.pending = pending
	m.ctxCountdown = countdown
}

// exec is the hot loop: one flat instruction stream, direct jump targets,
// pre-resolved operands.
func (m *Compiled) exec(fn *cfunc, fr *cframe) (int32, error) {
	code := fn.code
	regs := fr.regs
	// The per-block accumulators and their configuration are hoisted into
	// locals so the loop body keeps them in machine registers instead of
	// round-tripping through m on every block. The configuration fields
	// (delays, counts, limit, ctx, onDelay) cannot change mid-run.
	delays := m.delays
	counts := m.counts
	limit := m.limit
	ctx := m.ctx
	steps := m.steps
	pending := m.pending
	countdown := m.ctxCountdown
	pc := int32(0)
	for {
		in := &code[pc]
		switch in.op {
		case cBlock:
			// Same observable order as the tree-walker: profile count,
			// delay hook, step accounting/limit, cancellation countdown.
			if counts != nil {
				counts[in.a]++
			}
			if m.onDelay != nil {
				m.flushHot(steps, pending, countdown)
				err := m.onDelay(delays[in.a])
				pending = m.pending
				if err != nil {
					m.flushHot(steps, pending, countdown)
					return 0, err
				}
			} else if delays != nil {
				pending += delays[in.a]
			}
			n := uint64(in.b)
			steps += n
			if limit != 0 && steps > limit {
				m.flushHot(steps, pending, countdown)
				return 0, ErrLimit
			}
			if ctx != nil {
				if n == 0 {
					n = 1
				}
				if countdown <= n {
					countdown = ctxCheckSteps
					if err := diag.FromContext(ctx); err != nil {
						m.flushHot(steps, pending, countdown)
						return 0, err
					}
				} else {
					countdown -= n
				}
			}
		case cMovR:
			regs[in.dst] = regs[in.a]
		case cAddR:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case cSubR:
			regs[in.dst] = regs[in.a] - regs[in.b]
		case cMulR:
			regs[in.dst] = regs[in.a] * regs[in.b]
		case cAndR:
			regs[in.dst] = regs[in.a] & regs[in.b]
		case cOrR:
			regs[in.dst] = regs[in.a] | regs[in.b]
		case cXorR:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
		case cShlR:
			regs[in.dst] = regs[in.a] << (uint32(regs[in.b]) & 31)
		case cShrR:
			regs[in.dst] = regs[in.a] >> (uint32(regs[in.b]) & 31)
		case cCmpEqR:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
		case cCmpNeR:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
		case cCmpLtR:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
		case cCmpLeR:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
		case cCmpGtR:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
		case cCmpGeR:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
		case cLoadF:
			arr := fr.arrs[in.ext]
			idx := regs[in.a]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cLoadG:
			arr := m.garrs[in.ext]
			idx := regs[in.a]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cStoreF:
			arr := fr.arrs[in.ext]
			idx := regs[in.a]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			arr[idx] = regs[in.b]
		case cStoreG:
			arr := m.garrs[in.ext]
			idx := regs[in.a]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			arr[idx] = regs[in.b]
		case cBrEqR:
			if regs[in.a] == regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrNeR:
			if regs[in.a] != regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrLtR:
			if regs[in.a] < regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrLeR:
			if regs[in.a] <= regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrGtR:
			if regs[in.a] > regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrGeR:
			if regs[in.a] >= regs[in.b] {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cLoadFAdd:
			arr := fr.arrs[in.ext]
			idx := regs[in.a] + regs[in.b]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cLoadFSub:
			arr := fr.arrs[in.ext]
			idx := regs[in.a] - regs[in.b]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cLoadGAdd:
			arr := m.garrs[in.ext]
			idx := regs[in.a] + regs[in.b]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cLoadGSub:
			arr := m.garrs[in.ext]
			idx := regs[in.a] - regs[in.b]
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			regs[in.dst] = arr[idx]
		case cMulShr:
			regs[in.dst] = (regs[in.a] * regs[in.b]) >> (uint32(regs[in.ext]) & 31)
		case cMacShr:
			regs[in.dst] = regs[in.ext2] + ((regs[in.a] * regs[in.b]) >> (uint32(regs[in.ext]) & 31))
		case cBrEq:
			if m.ld(regs, in.a) == m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrNe:
			if m.ld(regs, in.a) != m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrLt:
			if m.ld(regs, in.a) < m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrLe:
			if m.ld(regs, in.a) <= m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrGt:
			if m.ld(regs, in.a) > m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cBrGe:
			if m.ld(regs, in.a) >= m.ld(regs, in.b) {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cMov:
			m.st(regs, in.dst, m.ld(regs, in.a))
		case cAdd:
			m.st(regs, in.dst, m.ld(regs, in.a)+m.ld(regs, in.b))
		case cSub:
			m.st(regs, in.dst, m.ld(regs, in.a)-m.ld(regs, in.b))
		case cMul:
			m.st(regs, in.dst, m.ld(regs, in.a)*m.ld(regs, in.b))
		case cDiv:
			m.st(regs, in.dst, cfront.FoldBinary(cfront.TokSlash, m.ld(regs, in.a), m.ld(regs, in.b)))
		case cRem:
			m.st(regs, in.dst, cfront.FoldBinary(cfront.TokPercent, m.ld(regs, in.a), m.ld(regs, in.b)))
		case cAnd:
			m.st(regs, in.dst, m.ld(regs, in.a)&m.ld(regs, in.b))
		case cOr:
			m.st(regs, in.dst, m.ld(regs, in.a)|m.ld(regs, in.b))
		case cXor:
			m.st(regs, in.dst, m.ld(regs, in.a)^m.ld(regs, in.b))
		case cShl:
			m.st(regs, in.dst, m.ld(regs, in.a)<<(uint32(m.ld(regs, in.b))&31))
		case cShr:
			m.st(regs, in.dst, m.ld(regs, in.a)>>(uint32(m.ld(regs, in.b))&31))
		case cNeg:
			m.st(regs, in.dst, -m.ld(regs, in.a))
		case cNot:
			m.st(regs, in.dst, ^m.ld(regs, in.a))
		case cCmpEq:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) == m.ld(regs, in.b)))
		case cCmpNe:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) != m.ld(regs, in.b)))
		case cCmpLt:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) < m.ld(regs, in.b)))
		case cCmpLe:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) <= m.ld(regs, in.b)))
		case cCmpGt:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) > m.ld(regs, in.b)))
		case cCmpGe:
			m.st(regs, in.dst, b2i(m.ld(regs, in.a) >= m.ld(regs, in.b)))
		case cLoad:
			arr := m.arrOf(fr, in.ext)
			idx := m.ld(regs, in.a)
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			m.st(regs, in.dst, arr[idx])
		case cStore:
			arr := m.arrOf(fr, in.ext)
			idx := m.ld(regs, in.a)
			if idx < 0 || int(idx) >= len(arr) {
				m.flushHot(steps, pending, countdown)
				return 0, m.runtimeErr(fn.poss[pc], "index %d out of range [0,%d) in %s", idx, len(arr), fn.name)
			}
			arr[idx] = m.ld(regs, in.b)
		case cCall:
			cf := m.cp.funcs[in.ext]
			nfr := m.frame(int(in.ext))
			args := fn.argPool[in.a : in.a+in.b]
			for j := range cf.params {
				p := &cf.params[j]
				if p.isArray {
					a := m.arrOf(fr, args[j])
					if a == nil {
						m.release(int(in.ext), nfr)
						m.flushHot(steps, pending, countdown)
						return 0, fmt.Errorf("interp: %s: array argument %d is nil", cf.name, p.ix)
					}
					nfr.arrs[p.arr] = a
				} else {
					nfr.regs[p.reg] = m.ld(regs, args[j])
				}
			}
			m.flushHot(steps, pending, countdown)
			v, err := m.exec(cf, nfr)
			m.release(int(in.ext), nfr)
			steps, pending, countdown = m.steps, m.pending, m.ctxCountdown
			if err != nil {
				return 0, err
			}
			if in.dst != dstNone {
				m.st(regs, in.dst, v)
			}
		case cSend:
			n := m.ld(regs, in.a)
			arr := m.arrOf(fr, in.ext)
			m.flushHot(steps, pending, countdown)
			if n < 0 || int(n) > len(arr) {
				return 0, m.runtimeErr(fn.poss[pc], "send count %d out of range [0,%d]", n, len(arr))
			}
			if m.send == nil {
				return 0, m.runtimeErr(fn.poss[pc], "send on channel %d: process has no channel binding", in.ext2)
			}
			// The channel wrapper may drain pending (TakePending) while the
			// process waits out the transaction, so reload it afterwards.
			err := m.send(int(in.ext2), arr[:n])
			pending = m.pending
			if err != nil {
				return 0, err
			}
		case cRecv:
			n := m.ld(regs, in.a)
			arr := m.arrOf(fr, in.ext)
			m.flushHot(steps, pending, countdown)
			if n < 0 || int(n) > len(arr) {
				return 0, m.runtimeErr(fn.poss[pc], "recv count %d out of range [0,%d]", n, len(arr))
			}
			if m.recv == nil {
				return 0, m.runtimeErr(fn.poss[pc], "recv on channel %d: process has no channel binding", in.ext2)
			}
			err := m.recv(int(in.ext2), arr[:n])
			pending = m.pending
			if err != nil {
				return 0, err
			}
		case cOut:
			m.out = append(m.out, m.ld(regs, in.a))
		case cBr:
			if m.ld(regs, in.a) != 0 {
				pc = in.ext
			} else {
				pc = in.ext2
			}
			continue
		case cJmp:
			pc = in.ext
			continue
		case cRet:
			m.flushHot(steps, pending, countdown)
			return m.ld(regs, in.a), nil
		case cRetVoid:
			m.flushHot(steps, pending, countdown)
			return 0, nil
		case cTrap:
			m.flushHot(steps, pending, countdown)
			return 0, fmt.Errorf("interp: block bb%d of %s fell through without terminator", in.a, fn.name)
		case cNop:
			// nothing
		}
		pc++
	}
}
