package iss

import (
	"errors"
	"fmt"

	"ese/internal/cdfg"
	"ese/internal/cfront"
)

// Trace reports what one executed instruction did, in the form the one
// instruction-timing loop (internal/rtl's pass, whose lanes are the board
// and the ISS) consumes. The functional machine is timing-free; timing is
// layered on top (functional-first, timing-directed simulation).
type Trace struct {
	PC     int // executed instruction index
	Op     cdfg.Opcode
	Class  cdfg.Class
	DAddrs []uint32 // data-memory operand addresses touched (cacheable)
	Branch bool     // conditional branch executed
	Taken  bool     // branch direction
	Bus    int      // send/recv payload words (0 otherwise)
	Chan   int
	IsSend bool
	// Executed reports that an instruction actually retired this step (the
	// final ret both retires and sets Done; a step on a finished machine
	// retires nothing).
	Executed bool
	Done     bool // program finished
}

// ErrStackOverflow is returned when call depth exhausts the stack segment.
var ErrStackOverflow = errors.New("iss: stack overflow")

// Machine executes a Program functionally. Communication and output are
// delegated to callbacks so the same machine serves a standalone process
// (the ISS, calibration) and the PEs of a multi-PE board.
type Machine struct {
	Prog    *Program
	globals []int32
	// stack backs the top of the reserved stack range, [stackLo,
	// StackTop). It grows downward on demand (growStack), so a machine
	// holds the stack its program touches rather than the whole range.
	stack   []int32
	stackLo uint32
	sp      uint32
	frames  []frame
	regPool [][]int32
	pc      int
	done    bool

	Out   []int32
	Send  func(ch int, data []int32) error
	Recv  func(ch int, buf []int32) error
	Steps uint64
}

type frame struct {
	fn     *FuncInfo
	regs   []int32
	fp     uint32
	retPC  int
	retDst Dest
}

// NewMachine loads the program image.
func NewMachine(p *Program) *Machine {
	m := &Machine{Prog: p}
	m.Reset()
	return m
}

// Reset restores the initial memory image and clears all execution state.
func (m *Machine) Reset() {
	if m.globals == nil {
		m.globals = make([]int32, len(m.Prog.Globals))
	}
	copy(m.globals, m.Prog.Globals)
	for i := len(m.Prog.Globals); i < len(m.globals); i++ {
		m.globals[i] = 0
	}
	clear(m.stack)
	m.stackLo = StackTop - 4*uint32(len(m.stack))
	m.sp = StackTop
	m.frames = m.frames[:0]
	m.pc = 0
	m.done = true
	m.Out = m.Out[:0]
	m.Steps = 0
}

// Start prepares execution of the named zero-argument function.
func (m *Machine) Start(entry string) error {
	id, ok := m.Prog.ByName[entry]
	if !ok {
		return fmt.Errorf("iss: no function %q", entry)
	}
	fi := &m.Prog.Funcs[id]
	if fi.NumParams != 0 {
		return fmt.Errorf("iss: entry %q must take no parameters", entry)
	}
	if err := m.pushFrame(fi, -1, Dest{}); err != nil {
		return err
	}
	m.pc = fi.Entry
	m.done = false
	return nil
}

// Done reports whether the program has finished.
func (m *Machine) Done() bool { return m.done }

// pushFrame allocates a register window and stack frame for fi.
func (m *Machine) pushFrame(fi *FuncInfo, retPC int, retDst Dest) error {
	need := uint32(fi.FrameWords) * 4
	if m.sp-need < StackBase {
		return ErrStackOverflow
	}
	m.sp -= need
	if m.sp < m.stackLo {
		m.growStack(m.sp)
	}
	// The ABI zero-fills fresh frames (local arrays) and windows, which
	// every engine in this repo implements identically and at no cycle
	// cost; see the package comment.
	base := (m.sp - m.stackLo) / 4
	for i := uint32(0); i < uint32(fi.FrameWords); i++ {
		m.stack[base+i] = 0
	}
	depth := len(m.frames)
	var regs []int32
	if depth < len(m.regPool) && cap(m.regPool[depth]) >= fi.NRegs {
		regs = m.regPool[depth][:fi.NRegs]
		for i := range regs {
			regs[i] = 0
		}
	} else {
		regs = make([]int32, fi.NRegs)
		for depth >= len(m.regPool) {
			m.regPool = append(m.regPool, nil)
		}
	}
	m.regPool[depth] = regs
	m.frames = append(m.frames, frame{fn: fi, regs: regs, fp: m.sp, retPC: retPC, retDst: retDst})
	return nil
}

// minStackWords is the stack backing's first size, 4 KiB.
const minStackWords = 1 << 10

// growStack extends the stack's backing down to cover addr, an address of
// the reserved range below stackLo. It at least doubles the backing, up to
// the whole range, so a deepening call chain copies it O(log n) times. The
// new words read zero, as the whole range does after Reset.
func (m *Machine) growStack(addr uint32) {
	n := max(2*len(m.stack), minStackWords, int((StackTop-addr+3)/4))
	n = min(n, StackWords)
	grown := make([]int32, n)
	copy(grown[n-len(m.stack):], m.stack)
	m.stack = grown
	m.stackLo = StackTop - 4*uint32(n)
}

func (m *Machine) cur() *frame { return &m.frames[len(m.frames)-1] }

// memIndex resolves a byte address to a segment slice and index. A stack
// address below the backing grows it first.
func (m *Machine) memIndex(addr uint32) (*[]int32, uint32, error) {
	switch {
	case addr >= m.stackLo && addr < StackTop:
		return &m.stack, (addr - m.stackLo) / 4, nil
	case addr >= StackBase && addr < m.stackLo:
		m.growStack(addr)
		return &m.stack, (addr - m.stackLo) / 4, nil
	case addr >= GlobalBase && addr < GlobalBase+uint32(len(m.globals))*4:
		return &m.globals, (addr - GlobalBase) / 4, nil
	}
	return nil, 0, fmt.Errorf("iss: bad address 0x%08x at pc %d", addr, m.pc)
}

func (m *Machine) memRead(addr uint32) (int32, error) {
	seg, idx, err := m.memIndex(addr)
	if err != nil {
		return 0, err
	}
	return (*seg)[idx], nil
}

func (m *Machine) memWrite(addr uint32, v int32) error {
	seg, idx, err := m.memIndex(addr)
	if err != nil {
		return err
	}
	(*seg)[idx] = v
	return nil
}

// memSlice returns the n-word window starting at addr, for bus transfers.
func (m *Machine) memSlice(addr uint32, n int32) ([]int32, error) {
	seg, idx, err := m.memIndex(addr)
	if err != nil {
		return nil, err
	}
	if n < 0 || idx+uint32(n) > uint32(len(*seg)) {
		return nil, fmt.Errorf("iss: bus window [0x%08x,+%d words) out of range", addr, n)
	}
	return (*seg)[idx : idx+uint32(n)], nil
}

// eval reads an operand value, recording global data accesses in the trace.
func (m *Machine) eval(o Operand, f *frame, t *Trace) (int32, error) {
	switch o.Kind {
	case OpdImm:
		return o.Imm, nil
	case OpdReg:
		return f.regs[o.Reg], nil
	case OpdGlob:
		t.DAddrs = append(t.DAddrs, o.Addr)
		return m.memRead(o.Addr)
	case OpdAddrImm:
		return int32(o.Addr), nil
	case OpdAddrFrame:
		return int32(f.fp + uint32(o.Imm)*4), nil
	case OpdAddrReg:
		return f.regs[o.Reg], nil
	}
	return 0, fmt.Errorf("iss: bad operand at pc %d", m.pc)
}

// writeDst writes an instruction result, recording global writes.
func (m *Machine) writeDst(d Dest, v int32, f *frame, t *Trace) error {
	switch d.Kind {
	case DstNone:
		return nil
	case DstReg:
		f.regs[d.Reg] = v
		return nil
	case DstGlob:
		t.DAddrs = append(t.DAddrs, d.Addr)
		return m.memWrite(d.Addr, v)
	}
	return fmt.Errorf("iss: bad destination at pc %d", m.pc)
}

// baseAddr resolves the array base of a memory or bus instruction.
func (m *Machine) baseAddr(in *Inst, f *frame) (uint32, error) {
	switch in.Base {
	case BaseGlob:
		return in.BaseAddr, nil
	case BaseFrame:
		return f.fp + uint32(in.BaseOff)*4, nil
	case BaseReg:
		return uint32(f.regs[in.BaseReg]), nil
	}
	return 0, fmt.Errorf("iss: missing array base at pc %d", m.pc)
}

// Step executes one instruction, filling t with its timing-relevant
// effects. It reuses t.DAddrs to stay allocation-free on the hot path.
func (m *Machine) Step(t *Trace) error {
	t.DAddrs = t.DAddrs[:0]
	t.Branch = false
	t.Taken = false
	t.Bus = 0
	t.Done = false
	t.Executed = false
	if m.done {
		t.Done = true
		return nil
	}
	t.Executed = true
	in := &m.Prog.Instrs[m.pc]
	f := m.cur()
	t.PC = m.pc
	t.Op = in.Op
	t.Class = cdfg.OpClass(in.Op)
	m.Steps++
	next := m.pc + 1

	switch in.Op {
	case cdfg.OpBr:
		v, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		t.Branch = true
		if v != 0 {
			t.Taken = true
			next = in.Target
		} else {
			next = in.Else
		}
	case cdfg.OpJmp:
		next = in.Target
	case cdfg.OpRet:
		v := int32(0)
		if in.A.Kind != OpdNone {
			var err error
			v, err = m.eval(in.A, f, t)
			if err != nil {
				return err
			}
		}
		retPC, retDst := f.retPC, f.retDst
		m.sp += uint32(f.fn.FrameWords) * 4
		m.frames = m.frames[:len(m.frames)-1]
		if len(m.frames) == 0 {
			m.done = true
			t.Done = true
			return nil
		}
		caller := m.cur()
		if err := m.writeDst(retDst, v, caller, t); err != nil {
			return err
		}
		next = retPC
	case cdfg.OpCall:
		fi := &m.Prog.Funcs[in.FnID]
		// Evaluate arguments in the caller frame before switching windows.
		var argv [16]int32
		args := argv[:0]
		for _, a := range in.Args {
			v, err := m.eval(a, f, t)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		if err := m.pushFrame(fi, next, in.Dst); err != nil {
			return err
		}
		callee := m.cur()
		copy(callee.regs, args)
		next = fi.Entry
	case cdfg.OpLoad:
		base, err := m.baseAddr(in, f)
		if err != nil {
			return err
		}
		idx, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		addr := base + uint32(idx)*4
		t.DAddrs = append(t.DAddrs, addr)
		v, err := m.memRead(addr)
		if err != nil {
			return err
		}
		if err := m.writeDst(in.Dst, v, f, t); err != nil {
			return err
		}
	case cdfg.OpStore:
		base, err := m.baseAddr(in, f)
		if err != nil {
			return err
		}
		idx, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		v, err := m.eval(in.B, f, t)
		if err != nil {
			return err
		}
		addr := base + uint32(idx)*4
		t.DAddrs = append(t.DAddrs, addr)
		if err := m.memWrite(addr, v); err != nil {
			return err
		}
	case cdfg.OpSend, cdfg.OpRecv:
		base, err := m.baseAddr(in, f)
		if err != nil {
			return err
		}
		n, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		buf, err := m.memSlice(base, n)
		if err != nil {
			return err
		}
		t.Bus = int(n)
		t.Chan = in.Chan
		if in.Op == cdfg.OpSend {
			t.IsSend = true
			if m.Send == nil {
				return fmt.Errorf("iss: send on unbound channel %d", in.Chan)
			}
			if err := m.Send(in.Chan, buf); err != nil {
				return err
			}
		} else {
			t.IsSend = false
			if m.Recv == nil {
				return fmt.Errorf("iss: recv on unbound channel %d", in.Chan)
			}
			if err := m.Recv(in.Chan, buf); err != nil {
				return err
			}
		}
	case cdfg.OpOut:
		v, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		m.Out = append(m.Out, v)
	case cdfg.OpNop:
		// nothing
	default:
		a, err := m.eval(in.A, f, t)
		if err != nil {
			return err
		}
		var b int32
		if in.B.Kind != OpdNone {
			b, err = m.eval(in.B, f, t)
			if err != nil {
				return err
			}
		}
		var v int32
		switch in.Op {
		case cdfg.OpMov:
			v = a
		case cdfg.OpAdd:
			v = a + b
		case cdfg.OpSub:
			v = a - b
		case cdfg.OpMul:
			v = a * b
		case cdfg.OpDiv:
			v = cfront.FoldBinary(cfront.TokSlash, a, b)
		case cdfg.OpRem:
			v = cfront.FoldBinary(cfront.TokPercent, a, b)
		case cdfg.OpAnd:
			v = a & b
		case cdfg.OpOr:
			v = a | b
		case cdfg.OpXor:
			v = a ^ b
		case cdfg.OpShl:
			v = a << (uint32(b) & 31)
		case cdfg.OpShr:
			v = a >> (uint32(b) & 31)
		case cdfg.OpNeg:
			v = -a
		case cdfg.OpNot:
			v = ^a
		case cdfg.OpCmpEq:
			v = b2i(a == b)
		case cdfg.OpCmpNe:
			v = b2i(a != b)
		case cdfg.OpCmpLt:
			v = b2i(a < b)
		case cdfg.OpCmpLe:
			v = b2i(a <= b)
		case cdfg.OpCmpGt:
			v = b2i(a > b)
		case cdfg.OpCmpGe:
			v = b2i(a >= b)
		default:
			return fmt.Errorf("iss: unknown opcode %v at pc %d", in.Op, m.pc)
		}
		if err := m.writeDst(in.Dst, v, f, t); err != nil {
			return err
		}
	}
	m.pc = next
	return nil
}

// Run executes until completion or the step limit (0 = unlimited).
func (m *Machine) Run(limit uint64) error {
	var t Trace
	for !m.done {
		if err := m.Step(&t); err != nil {
			return err
		}
		if limit != 0 && m.Steps > limit {
			return fmt.Errorf("iss: step limit %d exceeded", limit)
		}
	}
	return nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
