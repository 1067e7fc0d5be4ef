// Package cdfg defines the control/data flow graph IR that the front end
// lowers C processes into, and that the estimation engine, the TLM executor
// and the ISA code generator all consume.
//
// A Program holds global variables and functions. A Function is a CFG of
// basic Blocks; each Block is a straight-line sequence of three-address
// Instrs ending in exactly one terminator (Br, Jmp or Ret). Within a block,
// BuildDFG recovers the data-flow graph that Algorithm 1 of the paper
// schedules on the processing unit model.
//
// Storage model: scalar variables are IR-level registers (one Slot each for
// locals/params, one Global each at program scope); arrays live in memory
// and are touched only by Load/Store. Expression temporaries (RefTemp) are
// virtual registers private to a function and never count as memory
// operands. This mirrors the naive (-O0 style) code the ISA backend emits,
// which keeps the estimation model and the cycle-accurate baselines
// consistent by construction.
package cdfg

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ese/internal/cfront"
)

// Opcode enumerates IR operations.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Arithmetic and logic. Dst = A op B (temps/vars/consts).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg // Dst = -A
	OpNot // Dst = ^A

	// Comparisons, producing 0/1.
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	// Data movement.
	OpMov   // Dst = A
	OpLoad  // Dst = Arr[A]
	OpStore // Arr[A] = B

	// Control flow (terminators, except OpCall).
	OpBr  // if A != 0 goto Then else Else
	OpJmp // goto Target
	OpRet // return A (A may be RefNone)

	// Calls and platform intrinsics.
	OpCall // Dst (optional) = Callee(Args...)
	OpSend // send(Chan, Arr, A words)
	OpRecv // recv(Chan, Arr, A words)
	OpOut  // out(A)
)

var opNames = [...]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpNeg: "neg", OpNot: "not",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge",
	OpMov: "mov", OpLoad: "load", OpStore: "store",
	OpBr: "br", OpJmp: "jmp", OpRet: "ret",
	OpCall: "call", OpSend: "send", OpRecv: "recv", OpOut: "out",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Opcode) IsTerminator() bool {
	return op == OpBr || op == OpJmp || op == OpRet
}

// Class groups opcodes into the operation classes that the processing unit
// model's operation mapping table is keyed by.
type Class uint8

const (
	ClassNone   Class = iota
	ClassALU          // add/sub/logic/compare/mov/neg/not
	ClassMul          // multiply
	ClassDiv          // divide/remainder
	ClassShift        // shifts
	ClassLoad         // memory read
	ClassStore        // memory write
	ClassBranch       // conditional branch
	ClassJump         // unconditional jump, return
	ClassCall         // function call
	ClassIO           // send/recv/out bookkeeping op
)

var classNames = [...]string{
	ClassNone: "none", ClassALU: "alu", ClassMul: "mul", ClassDiv: "div",
	ClassShift: "shift", ClassLoad: "load", ClassStore: "store",
	ClassBranch: "branch", ClassJump: "jump", ClassCall: "call", ClassIO: "io",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// OpClass returns the operation class of an opcode.
func OpClass(op Opcode) Class {
	switch op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpNeg, OpNot, OpMov,
		OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpGt, OpCmpGe:
		return ClassALU
	case OpMul:
		return ClassMul
	case OpDiv, OpRem:
		return ClassDiv
	case OpShl, OpShr:
		return ClassShift
	case OpLoad:
		return ClassLoad
	case OpStore:
		return ClassStore
	case OpBr:
		return ClassBranch
	case OpJmp, OpRet:
		return ClassJump
	case OpCall:
		return ClassCall
	case OpSend, OpRecv, OpOut:
		return ClassIO
	}
	return ClassNone
}

// RefKind classifies instruction operands.
type RefKind uint8

const (
	RefNone   RefKind = iota
	RefConst          // immediate constant
	RefTemp           // function-local virtual register
	RefSlot           // scalar local/param slot, or array slot as a base
	RefGlobal         // scalar global, or global array as a base
)

// Ref is an instruction operand.
type Ref struct {
	Kind RefKind
	Val  int32 // RefConst value
	Idx  int   // temp id, slot index, or global index
}

// Const returns a constant operand.
func Const(v int32) Ref { return Ref{Kind: RefConst, Val: v} }

// Temp returns a temp operand.
func Temp(i int) Ref { return Ref{Kind: RefTemp, Idx: i} }

// SlotRef returns a slot operand.
func SlotRef(i int) Ref { return Ref{Kind: RefSlot, Idx: i} }

// GlobalRef returns a global operand.
func GlobalRef(i int) Ref { return Ref{Kind: RefGlobal, Idx: i} }

func (r Ref) String() string {
	switch r.Kind {
	case RefNone:
		return "_"
	case RefConst:
		return fmt.Sprintf("#%d", r.Val)
	case RefTemp:
		return fmt.Sprintf("t%d", r.Idx)
	case RefSlot:
		return fmt.Sprintf("s%d", r.Idx)
	case RefGlobal:
		return fmt.Sprintf("g%d", r.Idx)
	}
	return "?"
}

// Instr is one three-address IR operation.
type Instr struct {
	Op   Opcode
	Dst  Ref // result (RefTemp/RefSlot/RefGlobal), or RefNone
	A, B Ref // operands
	Arr  Ref // array base for Load/Store/Send/Recv (RefSlot or RefGlobal)

	// Control flow.
	Then, Else *Block // OpBr
	Target     *Block // OpJmp

	// Calls.
	Callee *Function
	Args   []Ref // scalar refs, or array base refs for array params

	// Intrinsics.
	Chan int // OpSend/OpRecv channel id

	Pos cfront.Pos
}

// Block is a basic block.
type Block struct {
	ID     int
	Fn     *Function
	Instrs []Instr
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Succs returns the successor blocks in CFG order.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []*Block{t.Then, t.Else}
	case OpJmp:
		return []*Block{t.Target}
	}
	return nil
}

// Slot is one unit of function-local storage.
type Slot struct {
	Name    string
	IsArray bool
	Size    int32 // words; 1 for scalars, 0 for array params (unsized)
	IsParam bool
	ParamIx int     // position in the parameter list, if IsParam
	Init    []int32 // constant initializer for local arrays/scalars, optional
}

// Function is a lowered function.
type Function struct {
	Name       string
	ReturnsInt bool
	Params     []*Slot // aliases into Slots[0:len(Params)]
	Slots      []*Slot
	Blocks     []*Block
	NTemps     int
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Global is one program-scope variable.
type Global struct {
	Name    string
	IsArray bool
	Size    int32 // words
	Init    []int32
}

// Program is a lowered translation unit.
//
// Estimates never live in the IR: annotation results are keyed by block
// pointer outside it, so one lowered program can be shared read-only by
// any number of concurrent estimation and simulation jobs.
type Program struct {
	Globals []*Global
	Funcs   []*Function
	funcMap map[string]*Function

	// fps memoizes the fingerprint table (see BlockFingerprints); nil
	// until first use, cleared by SimplifyProgram.
	fps atomic.Pointer[fpTable]
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function { return p.funcMap[name] }

// Reachable returns, in program order, the functions reachable by static
// calls from the functions named by entries; names matching no function
// are ignored. Names resolve by scanning Funcs, so programs built without
// a name map resolve too.
func (p *Program) Reachable(entries ...string) []*Function {
	seen := make(map[*Function]bool)
	var work []*Function
	for _, fn := range p.Funcs {
		if slices.Contains(entries, fn.Name) {
			seen[fn] = true
			work = append(work, fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if c := b.Instrs[i].Callee; c != nil && !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
	}
	var out []*Function
	for _, fn := range p.Funcs {
		if seen[fn] {
			out = append(out, fn)
		}
	}
	return out
}

// WithGlobals returns a deep copy of the program's code over the given
// globals, which must match the program's own in count, name and
// array-ness: only sizes and initializers, the workload data the code
// fingerprint excludes, may differ. The globals are used as given, not
// copied. The copy is private (functions, slots, blocks, instructions
// and call arguments are its own) and carries the program's memoized
// fingerprint table, which such globals cannot change.
func (p *Program) WithGlobals(globals []*Global) (*Program, error) {
	if len(globals) != len(p.Globals) {
		return nil, fmt.Errorf("cdfg: %d globals for a program with %d", len(globals), len(p.Globals))
	}
	for i, g := range globals {
		if own := p.Globals[i]; g.Name != own.Name || g.IsArray != own.IsArray {
			return nil, fmt.Errorf("cdfg: global %d is %s (array %t), the program's is %s (array %t)",
				i, g.Name, g.IsArray, own.Name, own.IsArray)
		}
	}
	q := &Program{Globals: globals, funcMap: make(map[string]*Function, len(p.Funcs))}
	fnOf := make(map[*Function]*Function, len(p.Funcs))
	blockOf := make(map[*Block]*Block)
	for _, f := range p.Funcs {
		nf := &Function{Name: f.Name, ReturnsInt: f.ReturnsInt, NTemps: f.NTemps,
			Slots: make([]*Slot, len(f.Slots)), Blocks: make([]*Block, len(f.Blocks))}
		for i, s := range f.Slots {
			c := *s
			c.Init = slices.Clone(s.Init)
			nf.Slots[i] = &c
		}
		nf.Params = nf.Slots[:len(f.Params):len(f.Params)]
		for i, b := range f.Blocks {
			nf.Blocks[i] = &Block{ID: b.ID, Fn: nf}
			blockOf[b] = nf.Blocks[i]
		}
		q.Funcs = append(q.Funcs, nf)
		q.funcMap[f.Name] = nf
		fnOf[f] = nf
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			instrs := slices.Clone(b.Instrs)
			for i := range instrs {
				in := &instrs[i]
				in.Then, in.Else, in.Target = blockOf[in.Then], blockOf[in.Else], blockOf[in.Target]
				in.Callee = fnOf[in.Callee]
				in.Args = slices.Clone(in.Args)
			}
			blockOf[b].Instrs = instrs
		}
	}
	q.fps.Store(p.fps.Load())
	return q, nil
}

// NumBlocks returns the total basic-block count, a convenient size metric.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// NumInstrs returns the total static instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
