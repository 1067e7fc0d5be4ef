// Package iss implements the instruction-set level of the reproduction: a
// MicroBlaze-like virtual ISA generated 1:1 from CDFG operations and a
// functional machine that executes it, reporting each retired
// instruction's trace. The machine is timing-free: internal/rtl's one
// instruction-timing loop charges the traces, as the board and as the
// interpreted ISS baseline (the "ISS" column of the paper's Tables 1 and
// 2).
//
// ISA model. The target is a register-window soft core: every function has
// a private register file (one register per scalar local/param and per
// temporary); local arrays live in a stack frame in data memory; global
// scalars and arrays live in a global data segment. Instructions map 1:1 to
// IR operations, with memory-direct operands for global scalars (as on
// absolute-addressing embedded cores), so the dynamic instruction count of
// the ISA equals the dynamic IR operation count the estimation engine sees,
// and the data-memory operand count equals cdfg.MemOperands by
// construction. CALL copies arguments into the callee window and allocates
// (zero-filled) frame storage as an ABI service of the core.
//
// Address map: code at 0x0 (4 bytes per instruction), globals at
// GlobalBase, the stack at StackBase..StackTop growing down. The stack's
// whole range is reserved, so its addresses, the D-cache sets they map to
// and the overflow depth are fixed; a machine backs only the part of it
// the program touches.
package iss

import (
	"ese/internal/cdfg"
)

// Memory layout constants.
const (
	GlobalBase uint32 = 0x1000_0000
	StackWords        = 1 << 18 // 256K words = 1 MiB of reserved stack addresses, backed on demand
	StackBase  uint32 = 0x2000_0000
	StackTop   uint32 = StackBase + 4*StackWords
)

// OperandKind classifies instruction operands.
type OperandKind uint8

const (
	OpdNone OperandKind = iota
	OpdImm              // immediate constant
	OpdReg              // register in the current window
	OpdGlob             // global scalar, memory-direct (one d-access)

	// Address-generating operands, used for array arguments of CALL.
	OpdAddrImm   // absolute address of a global array
	OpdAddrFrame // FP-relative address of a local array
	OpdAddrReg   // address held in a register (array parameter)
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Imm  int32  // OpdImm value, OpdAddrFrame word offset
	Reg  int    // OpdReg / OpdAddrReg register index
	Addr uint32 // OpdGlob / OpdAddrImm absolute byte address
}

// DestKind classifies instruction destinations.
type DestKind uint8

const (
	DstNone DestKind = iota
	DstReg
	DstGlob // global scalar, memory-direct (one d-access)
)

// Dest is an instruction destination.
type Dest struct {
	Kind DestKind
	Reg  int
	Addr uint32
}

// BaseKind classifies the array base of Load/Store/Send/Recv.
type BaseKind uint8

const (
	BaseNone  BaseKind = iota
	BaseGlob           // absolute base address
	BaseFrame          // FP-relative word offset
	BaseReg            // base address in a register
)

// Inst is one machine instruction. Op reuses the IR opcode space: the ISA
// is a linearized virtual encoding of the CDFG, which is what keeps the
// instruction-level baselines and the block-level estimator comparable.
type Inst struct {
	Op   cdfg.Opcode
	Dst  Dest
	A, B Operand

	// Array base for Load/Store/Send/Recv.
	Base     BaseKind
	BaseAddr uint32 // BaseGlob
	BaseOff  int32  // BaseFrame, in words
	BaseReg  int    // BaseReg

	// Control flow: instruction indices.
	Target int // Br taken / Jmp target
	Else   int // Br not-taken target

	// Calls.
	FnID int
	Args []Operand

	// Communication.
	Chan int
}

// FuncInfo is the per-function metadata the machine needs.
type FuncInfo struct {
	Name       string
	ID         int
	Entry      int // index of the first instruction
	NRegs      int // window size: scalar slots + temps
	FrameWords int // stack frame size (local arrays), in words
	ReturnsInt bool
	NumParams  int
}

// Program is a loadable machine program.
type Program struct {
	Instrs  []Inst
	Funcs   []FuncInfo
	ByName  map[string]int // function name -> ID
	Globals []int32        // initial global segment image (words)
	// GlobalAddrs[i] is the byte address of IR global i.
	GlobalAddrs []uint32
}

// PCAddr returns the byte address of an instruction index, the i-cache key.
func PCAddr(idx int) uint32 { return uint32(idx) * 4 }
