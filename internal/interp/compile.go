// Compilation pass of the flat execution engine: a one-time lowering of the
// CDFG into a pooled, pre-resolved instruction stream.
//
// The tree-walking interpreter (interp.go) re-dispatches on Ref.Kind for
// every operand of every dynamic instruction and allocates a fresh frame per
// call. Compile removes both costs up front:
//
//   - every scalar operand is resolved to a register index: temps, scalar
//     slots and constants share one per-frame register file (constants are
//     materialized once into the frame's constant-pool region), and scalar
//     globals are encoded as negative indices into the machine's global
//     word array — the hot loop performs a single sign test instead of a
//     four-way kind switch;
//   - basic blocks are numbered densely across the whole program and each
//     compiles to one cBlock bookkeeping instruction followed by its body,
//     so per-block profiling is a slice bump and the timed TLM's per-block
//     delay is a dense []float64 read instead of a map lookup;
//   - control flow becomes direct jumps to instruction indices within one
//     flat per-function code array;
//   - call argument lists are pre-resolved into a per-function operand pool,
//     and frames are recycled through per-function free lists (exec.go).
//
// Compile is conservative: IR shapes it cannot prove equivalent under the
// flat encoding (a scalar slot used as an array base, an argument-count
// mismatch, an unknown opcode) fail compilation with a descriptive error,
// which EngineAuto returns as EngineCompiled does. The lowering never emits
// those shapes; the tree-walker remains the reference semantics.
package interp

import (
	"fmt"
	"math"
	"sync"

	"ese/internal/cdfg"
	"ese/internal/cfront"
)

// cop enumerates compiled opcodes.
type cop uint8

const (
	cNop cop = iota
	cBlock
	cMov
	cAdd
	cSub
	cMul
	cDiv
	cRem
	cAnd
	cOr
	cXor
	cShl
	cShr
	cNeg
	cNot
	cCmpEq
	cCmpNe
	cCmpLt
	cCmpLe
	cCmpGt
	cCmpGe
	cLoad
	cStore
	cCall
	cSend
	cRecv
	cOut
	cBr
	cJmp
	cRet
	cRetVoid
	cTrap // block without terminator: reproduces the tree-walker's error

	// Fused compare-and-branch forms: `CmpX t, a, b; Br t, then, else`
	// collapses into one instruction when t is a temp whose only reader is
	// the branch. This removes a dispatch plus a register round-trip from
	// every conditional back edge.
	cBrEq
	cBrNe
	cBrLt
	cBrLe
	cBrGt
	cBrGe

	// Register-specialized forms, chosen per instruction at compile time
	// when every scalar operand is a frame register (the common case —
	// globals are rare inside kernels), so the hot loop skips the operand
	// sign tests entirely. cLoadF/cStoreF additionally pin the array to the
	// frame table and cLoadG/cStoreG to the (pre-complemented) global table.
	cMovR
	cAddR
	cSubR
	cMulR
	cAndR
	cOrR
	cXorR
	cShlR
	cShrR
	cCmpEqR
	cCmpNeR
	cCmpLtR
	cCmpLeR
	cCmpGtR
	cCmpGeR
	cLoadF
	cLoadG
	cStoreF
	cStoreG
	cBrEqR
	cBrNeR
	cBrLtR
	cBrLeR
	cBrGtR
	cBrGeR

	// Multiply-accumulate chain superinstructions. The MP3 kernels spend
	// most of their dynamic instructions in `acc += (x[i+k] * c[j+k]) >> s`
	// shapes; each link of that chain funnels through a single-read temp, so
	// the emitter fuses index-add/sub into the following load, mul into the
	// following shift, and the shifted product into the following add. All
	// operand fields are frame registers (fused only when the specialized
	// conditions already hold at emission).
	cLoadFAdd // dst = frameArr[ext][regs[a]+regs[b]]
	cLoadFSub // dst = frameArr[ext][regs[a]-regs[b]]
	cLoadGAdd // dst = globalArr[ext][regs[a]+regs[b]] (ext pre-complemented)
	cLoadGSub // dst = globalArr[ext][regs[a]-regs[b]] (ext pre-complemented)
	cMulShr   // dst = (regs[a]*regs[b]) >> (regs[ext] & 31)
	cMacShr   // dst = regs[ext2] + ((regs[a]*regs[b]) >> (regs[ext] & 31))
)

// dstNone marks a call instruction whose result is discarded.
const dstNone = math.MinInt32

// cinstr is one pre-resolved instruction. Scalar operand fields (dst, a, b)
// hold register indices: >= 0 indexes the frame register file, < 0 encodes
// ^i into the machine's global scalar words. The ext/ext2 fields carry the
// per-op extras: array base (>= 0 frame array table, < 0 ^i global array),
// jump targets (instruction indices), callee index, channel id, or the call
// argument pool window.
type cinstr struct {
	op   cop
	dst  int32
	a, b int32
	ext  int32
	ext2 int32
}

// cparam describes where one parameter lands in a fresh frame.
type cparam struct {
	isArray bool
	reg     int32 // scalar: register index
	arr     int32 // array: frame array-table index
	ix      int   // original parameter position (for error messages)
}

// carr describes one entry of a frame's array table.
type carr struct {
	isParam bool
	off     int32 // local arrays: offset into the frame's backing store
	size    int32 // local arrays: length in words
}

// cfunc is one compiled function.
type cfunc struct {
	name    string
	code    []cinstr
	poss    []cfront.Pos // per-instruction source positions (error paths)
	regInit []int32      // register-file template: zeros plus constant pool
	arrs    []carr       // frame array-table layout
	backing int32        // words of zeroed local-array backing per frame
	params  []cparam
	argPool []int32 // pre-resolved call-argument operands (windows per call)
}

// gArrInit is the initializer template of one global array.
type gArrInit struct {
	size int32
	init []int32
}

// CompiledProgram is the immutable compiled form of one cdfg.Program. It is
// shared by every Compiled machine executing the program (one per simulated
// process); all mutable state lives in the machines.
type CompiledProgram struct {
	src     *cdfg.Program
	funcs   []*cfunc
	byName  map[string]int
	blocks  []*cdfg.Block // dense program-wide block numbering
	blockID map[*cdfg.Block]int32
	gwords  []int32 // initial values of the scalar-global word array
	garrs   []gArrInit
}

// NumBlocks returns the number of densely numbered basic blocks.
func (cp *CompiledProgram) NumBlocks() int { return len(cp.blocks) }

// BlockID returns the dense program-wide id of a block, or -1 if the block
// is not part of the compiled program.
func (cp *CompiledProgram) BlockID(b *cdfg.Block) int32 {
	if id, ok := cp.blockID[b]; ok {
		return id
	}
	return -1
}

// Source returns the CDFG program this was compiled from.
func (cp *CompiledProgram) Source() *cdfg.Program { return cp.src }

// compiler holds the program-wide resolution tables.
type compiler struct {
	cp      *CompiledProgram
	funcIdx map[*cdfg.Function]int
	gScalar []int32 // global index -> word index, -1 for arrays
	gArr    []int32 // global index -> global-array index, -1 for scalars
}

// Compile lowers a CDFG program into the flat pre-resolved form. It returns
// an error when the program uses an IR shape the flat encoding does not
// cover.
func Compile(prog *cdfg.Program) (*CompiledProgram, error) {
	c := &compiler{
		cp: &CompiledProgram{
			src:     prog,
			byName:  make(map[string]int, len(prog.Funcs)),
			blockID: make(map[*cdfg.Block]int32),
		},
		funcIdx: make(map[*cdfg.Function]int, len(prog.Funcs)),
		gScalar: make([]int32, len(prog.Globals)),
		gArr:    make([]int32, len(prog.Globals)),
	}
	for i, g := range prog.Globals {
		if g.IsArray {
			c.gScalar[i] = -1
			c.gArr[i] = int32(len(c.cp.garrs))
			init := gArrInit{size: g.Size}
			if len(g.Init) > 0 {
				init.init = g.Init
			}
			c.cp.garrs = append(c.cp.garrs, init)
			continue
		}
		c.gArr[i] = -1
		c.gScalar[i] = int32(len(c.cp.gwords))
		v := int32(0)
		if len(g.Init) > 0 {
			v = g.Init[0]
		}
		c.cp.gwords = append(c.cp.gwords, v)
	}
	for i, fn := range prog.Funcs {
		c.funcIdx[fn] = i
		c.cp.byName[fn.Name] = i
		for _, b := range fn.Blocks {
			c.cp.blockID[b] = int32(len(c.cp.blocks))
			c.cp.blocks = append(c.cp.blocks, b)
		}
	}
	for _, fn := range prog.Funcs {
		cf, err := c.compileFunc(fn)
		if err != nil {
			return nil, fmt.Errorf("interp: compile %s: %w", fn.Name, err)
		}
		c.cp.funcs = append(c.cp.funcs, cf)
	}
	return c.cp, nil
}

// fnCompiler carries the per-function resolution state.
type fnCompiler struct {
	c         *compiler
	fn        *cdfg.Function
	out       *cfunc
	slotReg   []int32 // scalar slot -> register, -1 for array slots
	slotArr   []int32 // array slot -> array-table index, -1 for scalars
	nRegs     int32
	consts    map[int32]int32 // constant value -> register
	blockPC   map[*cdfg.Block]int32
	patches   []patch
	tempReads []int // per-temp read counts (compare-branch fusion safety)
}

// countTempReads counts, per temp, how many instruction operands read it
// anywhere in the function. A compare whose destination temp has exactly one
// read (the branch condition) can be fused into the branch: the register
// write is unobservable because nothing else ever loads it.
func countTempReads(fn *cdfg.Function) []int {
	reads := make([]int, fn.NTemps)
	note := func(r cdfg.Ref) {
		if r.Kind == cdfg.RefTemp && r.Idx >= 0 && r.Idx < len(reads) {
			reads[r.Idx]++
		}
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			note(in.A)
			note(in.B)
			for _, a := range in.Args {
				note(a)
			}
		}
	}
	return reads
}

// patch is a jump-target fixup recorded during emission.
type patch struct {
	pc     int
	second bool // patch ext2 instead of ext
	target *cdfg.Block
}

func (c *compiler) compileFunc(fn *cdfg.Function) (*cfunc, error) {
	if len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("function has no blocks")
	}
	fc := &fnCompiler{
		c:         c,
		fn:        fn,
		out:       &cfunc{name: fn.Name},
		slotReg:   make([]int32, len(fn.Slots)),
		slotArr:   make([]int32, len(fn.Slots)),
		nRegs:     int32(fn.NTemps),
		consts:    make(map[int32]int32),
		blockPC:   make(map[*cdfg.Block]int32, len(fn.Blocks)),
		tempReads: countTempReads(fn),
	}
	// Register and array-table layout: temps first, then scalar slots, then
	// (appended during emission) the constant pool.
	for i, s := range fn.Slots {
		if s.IsArray {
			fc.slotReg[i] = -1
			fc.slotArr[i] = int32(len(fc.out.arrs))
			entry := carr{isParam: s.IsParam}
			if !s.IsParam {
				entry.off = fc.out.backing
				entry.size = s.Size
				fc.out.backing += s.Size
			}
			fc.out.arrs = append(fc.out.arrs, entry)
			continue
		}
		fc.slotArr[i] = -1
		fc.slotReg[i] = fc.nRegs
		fc.nRegs++
	}
	for i, p := range fn.Params {
		si := -1
		for j, s := range fn.Slots {
			if s == p {
				si = j
				break
			}
		}
		if si < 0 {
			return nil, fmt.Errorf("parameter %d has no slot", i)
		}
		cp := cparam{isArray: p.IsArray, ix: i}
		if p.IsArray {
			cp.arr = fc.slotArr[si]
		} else {
			cp.reg = fc.slotReg[si]
		}
		fc.out.params = append(fc.out.params, cp)
	}
	for _, b := range fn.Blocks {
		if err := fc.emitBlock(b); err != nil {
			return nil, err
		}
	}
	for _, p := range fc.patches {
		pc, ok := fc.blockPC[p.target]
		if !ok {
			return nil, fmt.Errorf("branch to block outside function")
		}
		if p.second {
			fc.out.code[p.pc].ext2 = pc
		} else {
			fc.out.code[p.pc].ext = pc
		}
	}
	specialize(fc.out.code)
	// Register-file template: zeros for temps and scalar slots, then the
	// materialized constant pool.
	fc.out.regInit = make([]int32, fc.nRegs)
	for v, r := range fc.consts {
		fc.out.regInit[r] = v
	}
	return fc.out, nil
}

// rix resolves a scalar operand to its register encoding.
func (fc *fnCompiler) rix(r cdfg.Ref) (int32, error) {
	switch r.Kind {
	case cdfg.RefConst:
		if reg, ok := fc.consts[r.Val]; ok {
			return reg, nil
		}
		reg := fc.nRegs
		fc.nRegs++
		fc.consts[r.Val] = reg
		return reg, nil
	case cdfg.RefTemp:
		return int32(r.Idx), nil
	case cdfg.RefSlot:
		reg := fc.slotReg[r.Idx]
		if reg < 0 {
			return 0, fmt.Errorf("array slot s%d used as a scalar", r.Idx)
		}
		return reg, nil
	case cdfg.RefGlobal:
		w := fc.c.gScalar[r.Idx]
		if w < 0 {
			return 0, fmt.Errorf("array global g%d used as a scalar", r.Idx)
		}
		return ^w, nil
	}
	return 0, fmt.Errorf("unresolvable scalar operand %s", r)
}

// wix resolves a writable scalar destination (constants are rejected).
func (fc *fnCompiler) wix(r cdfg.Ref) (int32, error) {
	if r.Kind == cdfg.RefConst || r.Kind == cdfg.RefNone {
		return 0, fmt.Errorf("operand %s is not writable", r)
	}
	return fc.rix(r)
}

// aix resolves an array base operand.
func (fc *fnCompiler) aix(r cdfg.Ref) (int32, error) {
	switch r.Kind {
	case cdfg.RefSlot:
		a := fc.slotArr[r.Idx]
		if a < 0 {
			return 0, fmt.Errorf("scalar slot s%d used as an array base", r.Idx)
		}
		return a, nil
	case cdfg.RefGlobal:
		a := fc.c.gArr[r.Idx]
		if a < 0 {
			return 0, fmt.Errorf("scalar global g%d used as an array base", r.Idx)
		}
		return ^a, nil
	}
	return 0, fmt.Errorf("operand %s is not an array base", r)
}

func (fc *fnCompiler) emit(in cinstr, pos cfront.Pos) {
	fc.out.code = append(fc.out.code, in)
	fc.out.poss = append(fc.out.poss, pos)
}

// fusibleTemp reports whether r is a temp read exactly once function-wide.
// Fusing the producer of such a temp into its sole consumer leaves the
// temp's register unwritten, which no other instruction can observe.
func (fc *fnCompiler) fusibleTemp(r cdfg.Ref) bool {
	return r.Kind == cdfg.RefTemp && r.Idx >= 0 && r.Idx < len(fc.tempReads) &&
		fc.tempReads[r.Idx] == 1
}

// lastEmitted returns the most recently emitted instruction, or nil when
// nothing has been emitted. Block boundaries need no special casing: the
// previous block always ends with a terminator (or cTrap) and the current
// one begins with cBlock, so an arithmetic opcode in the last slot is
// necessarily an adjacent instruction of the same block.
func (fc *fnCompiler) lastEmitted() *cinstr {
	if len(fc.out.code) == 0 {
		return nil
	}
	return &fc.out.code[len(fc.out.code)-1]
}

// brFused maps a compare opcode to its fused compare-and-branch form.
var brFused = map[cop]cop{
	cCmpEq: cBrEq, cCmpNe: cBrNe, cCmpLt: cBrLt,
	cCmpLe: cBrLe, cCmpGt: cBrGt, cCmpGe: cBrGe,
}

// regForm maps a generic opcode to its all-register specialization.
var regForm = map[cop]cop{
	cAdd: cAddR, cSub: cSubR, cMul: cMulR, cAnd: cAndR,
	cOr: cOrR, cXor: cXorR, cShl: cShlR, cShr: cShrR,
	cCmpEq: cCmpEqR, cCmpNe: cCmpNeR, cCmpLt: cCmpLtR,
	cCmpLe: cCmpLeR, cCmpGt: cCmpGtR, cCmpGe: cCmpGeR,
}

// brRegForm maps a fused compare-and-branch to its all-register form.
var brRegForm = map[cop]cop{
	cBrEq: cBrEqR, cBrNe: cBrNeR, cBrLt: cBrLtR,
	cBrLe: cBrLeR, cBrGt: cBrGtR, cBrGe: cBrGeR,
}

// specialize rewrites instructions whose operands all live in the frame
// register file into sign-test-free forms, and splits loads/stores by array
// location (frame table vs. global table, the latter pre-complemented).
// Opcode rewrites never move instructions, so jump targets stay valid.
func specialize(code []cinstr) {
	for i := range code {
		in := &code[i]
		switch in.op {
		case cMov:
			if in.dst >= 0 && in.a >= 0 {
				in.op = cMovR
			}
		case cAdd, cSub, cMul, cAnd, cOr, cXor, cShl, cShr,
			cCmpEq, cCmpNe, cCmpLt, cCmpLe, cCmpGt, cCmpGe:
			if in.dst >= 0 && in.a >= 0 && in.b >= 0 {
				in.op = regForm[in.op]
			}
		case cBrEq, cBrNe, cBrLt, cBrLe, cBrGt, cBrGe:
			if in.a >= 0 && in.b >= 0 {
				in.op = brRegForm[in.op]
			}
		case cLoad:
			if in.dst >= 0 && in.a >= 0 {
				if in.ext >= 0 {
					in.op = cLoadF
				} else {
					in.op = cLoadG
					in.ext = ^in.ext
				}
			}
		case cStore:
			if in.a >= 0 && in.b >= 0 {
				if in.ext >= 0 {
					in.op = cStoreF
				} else {
					in.op = cStoreG
					in.ext = ^in.ext
				}
			}
		}
	}
}

// tryFuseBin grows multiply-accumulate superinstructions at emission time:
// `t = x*y; d = t >> s` becomes cMulShr, and `u = (x*y)>>s; d = u + c` (in
// either operand order) becomes cMacShr. Both rewrites replace the previous
// instruction in place, so jump targets stay valid, and fire only when the
// intermediate is a single-read temp and every operand is a frame register.
// Neither fused form has an error path, so the surviving position (the
// producer's) is never reported.
func (fc *fnCompiler) tryFuseBin(in *cdfg.Instr, dst, a, b int32) bool {
	if dst < 0 {
		return false
	}
	last := fc.lastEmitted()
	if last == nil {
		return false
	}
	switch in.Op {
	case cdfg.OpShr:
		if b >= 0 && fc.fusibleTemp(in.A) &&
			last.op == cMul && last.dst == int32(in.A.Idx) &&
			last.a >= 0 && last.b >= 0 {
			*last = cinstr{op: cMulShr, dst: dst, a: last.a, b: last.b, ext: b}
			return true
		}
	case cdfg.OpAdd:
		if last.op != cMulShr {
			return false
		}
		if a >= 0 && fc.fusibleTemp(in.B) && last.dst == int32(in.B.Idx) {
			*last = cinstr{op: cMacShr, dst: dst, a: last.a, b: last.b, ext: last.ext, ext2: a}
			return true
		}
		if b >= 0 && fc.fusibleTemp(in.A) && last.dst == int32(in.A.Idx) {
			*last = cinstr{op: cMacShr, dst: dst, a: last.a, b: last.b, ext: last.ext, ext2: b}
			return true
		}
	}
	return false
}

var binOps = map[cdfg.Opcode]cop{
	cdfg.OpAdd: cAdd, cdfg.OpSub: cSub, cdfg.OpMul: cMul, cdfg.OpDiv: cDiv,
	cdfg.OpRem: cRem, cdfg.OpAnd: cAnd, cdfg.OpOr: cOr, cdfg.OpXor: cXor,
	cdfg.OpShl: cShl, cdfg.OpShr: cShr,
	cdfg.OpCmpEq: cCmpEq, cdfg.OpCmpNe: cCmpNe, cdfg.OpCmpLt: cCmpLt,
	cdfg.OpCmpLe: cCmpLe, cdfg.OpCmpGt: cCmpGt, cdfg.OpCmpGe: cCmpGe,
}

func (fc *fnCompiler) emitBlock(b *cdfg.Block) error {
	fc.blockPC[b] = int32(len(fc.out.code))
	fc.emit(cinstr{
		op: cBlock,
		a:  fc.c.cp.blockID[b],
		b:  int32(len(b.Instrs)),
	}, cfront.Pos{})
	terminated := false
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
			// The tree-walker keeps executing the rest of the block after a
			// mid-block Br/Jmp; the flat form jumps immediately. Reject the
			// (malformed) shape, which verify.Program also reports.
			return fmt.Errorf("bb%d: terminator %s before end of block", b.ID, in.Op)
		}
		if err := fc.emitInstr(in); err != nil {
			return fmt.Errorf("bb%d: %w", b.ID, err)
		}
		if i == len(b.Instrs)-1 && in.Op.IsTerminator() {
			terminated = true
		}
	}
	if !terminated {
		// Keep the tree-walker's exact runtime diagnostic for malformed
		// hand-built IR instead of refusing to compile it.
		fc.emit(cinstr{op: cTrap, a: int32(b.ID)}, cfront.Pos{})
	}
	return nil
}

func (fc *fnCompiler) emitInstr(in *cdfg.Instr) error {
	switch in.Op {
	case cdfg.OpNop:
		return nil
	case cdfg.OpMov, cdfg.OpNeg, cdfg.OpNot:
		dst, err := fc.wix(in.Dst)
		if err != nil {
			return err
		}
		a, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		op := cMov
		switch in.Op {
		case cdfg.OpNeg:
			op = cNeg
		case cdfg.OpNot:
			op = cNot
		}
		fc.emit(cinstr{op: op, dst: dst, a: a}, in.Pos)
	case cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpDiv, cdfg.OpRem,
		cdfg.OpAnd, cdfg.OpOr, cdfg.OpXor, cdfg.OpShl, cdfg.OpShr,
		cdfg.OpCmpEq, cdfg.OpCmpNe, cdfg.OpCmpLt, cdfg.OpCmpLe,
		cdfg.OpCmpGt, cdfg.OpCmpGe:
		dst, err := fc.wix(in.Dst)
		if err != nil {
			return err
		}
		a, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		b, err := fc.rix(in.B)
		if err != nil {
			return err
		}
		if fc.tryFuseBin(in, dst, a, b) {
			return nil
		}
		fc.emit(cinstr{op: binOps[in.Op], dst: dst, a: a, b: b}, in.Pos)
	case cdfg.OpLoad:
		dst, err := fc.wix(in.Dst)
		if err != nil {
			return err
		}
		idx, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		arr, err := fc.aix(in.Arr)
		if err != nil {
			return err
		}
		// Peephole: `t = i ± k; dst = arr[t]` fuses into an indexed-load
		// superinstruction when t is a single-read temp computed by the
		// immediately preceding instruction from frame registers.
		if dst >= 0 && fc.fusibleTemp(in.A) {
			if last := fc.lastEmitted(); last != nil &&
				(last.op == cAdd || last.op == cSub) &&
				last.dst == int32(in.A.Idx) && last.a >= 0 && last.b >= 0 {
				op := cLoadFAdd
				if last.op == cSub {
					op = cLoadFSub
				}
				ext := arr
				if arr < 0 {
					op += cLoadGAdd - cLoadFAdd
					ext = ^arr
				}
				*last = cinstr{op: op, dst: dst, a: last.a, b: last.b, ext: ext}
				// The fused instruction's only error path is the load's
				// bounds check, so it reports the load's position.
				fc.out.poss[len(fc.out.poss)-1] = in.Pos
				return nil
			}
		}
		fc.emit(cinstr{op: cLoad, dst: dst, a: idx, ext: arr}, in.Pos)
	case cdfg.OpStore:
		idx, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		val, err := fc.rix(in.B)
		if err != nil {
			return err
		}
		arr, err := fc.aix(in.Arr)
		if err != nil {
			return err
		}
		fc.emit(cinstr{op: cStore, a: idx, b: val, ext: arr}, in.Pos)
	case cdfg.OpCall:
		callee, ok := fc.c.funcIdx[in.Callee]
		if !ok {
			return fmt.Errorf("call to a function outside the program")
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("%s called with %d args, want %d",
				in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
		off := int32(len(fc.out.argPool))
		for ai, ar := range in.Args {
			var v int32
			var err error
			if in.Callee.Params[ai].IsArray {
				v, err = fc.aix(ar)
			} else {
				v, err = fc.rix(ar)
			}
			if err != nil {
				return fmt.Errorf("arg %d of %s: %w", ai, in.Callee.Name, err)
			}
			fc.out.argPool = append(fc.out.argPool, v)
		}
		dst := int32(dstNone)
		if in.Dst.Kind != cdfg.RefNone {
			var err error
			dst, err = fc.wix(in.Dst)
			if err != nil {
				return err
			}
		}
		fc.emit(cinstr{op: cCall, dst: dst, a: off, b: int32(len(in.Args)), ext: int32(callee)}, in.Pos)
	case cdfg.OpSend, cdfg.OpRecv:
		n, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		arr, err := fc.aix(in.Arr)
		if err != nil {
			return err
		}
		op := cSend
		if in.Op == cdfg.OpRecv {
			op = cRecv
		}
		fc.emit(cinstr{op: op, a: n, ext: arr, ext2: int32(in.Chan)}, in.Pos)
	case cdfg.OpOut:
		a, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		fc.emit(cinstr{op: cOut, a: a}, in.Pos)
	case cdfg.OpBr:
		if in.Then == nil || in.Else == nil {
			return fmt.Errorf("branch with missing target")
		}
		// Peephole: `CmpX t, a, b; Br t` fuses into one compare-and-branch
		// when t is a temp read only by this branch (leaving its register
		// unwritten is then unobservable). The compare is necessarily the
		// immediately preceding emitted instruction of this same block.
		if fc.fusibleTemp(in.A) && len(fc.out.code) > 0 {
			last := &fc.out.code[len(fc.out.code)-1]
			if fused, ok := brFused[last.op]; ok && last.dst == int32(in.A.Idx) {
				pc := len(fc.out.code) - 1
				last.op = fused
				fc.patches = append(fc.patches,
					patch{pc: pc, target: in.Then},
					patch{pc: pc, second: true, target: in.Else})
				return nil
			}
		}
		a, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		pc := len(fc.out.code)
		fc.patches = append(fc.patches,
			patch{pc: pc, target: in.Then},
			patch{pc: pc, second: true, target: in.Else})
		fc.emit(cinstr{op: cBr, a: a}, in.Pos)
	case cdfg.OpJmp:
		if in.Target == nil {
			return fmt.Errorf("jump with missing target")
		}
		fc.patches = append(fc.patches, patch{pc: len(fc.out.code), target: in.Target})
		fc.emit(cinstr{op: cJmp}, in.Pos)
	case cdfg.OpRet:
		if in.A.Kind == cdfg.RefNone {
			fc.emit(cinstr{op: cRetVoid}, in.Pos)
			return nil
		}
		a, err := fc.rix(in.A)
		if err != nil {
			return err
		}
		fc.emit(cinstr{op: cRet, a: a}, in.Pos)
	default:
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Compilation cache

// compileCacheLimit bounds the pointer-keyed memoization map; beyond it the
// whole map is dropped (programs are few and compilation is cheap — the
// bound only prevents unbounded growth in long-running servers).
const compileCacheLimit = 64

var (
	compileMu    sync.Mutex
	compileCache = map[*cdfg.Program]compileEntry{}
)

type compileEntry struct {
	cp  *CompiledProgram
	err error
}

// CompileCached memoizes Compile keyed on program identity. The caller must
// not mutate the program's structure (blocks, instructions, slots) after
// the first compilation; annotation-phase Delay updates are fine because
// the compiled form never captures them.
func CompileCached(prog *cdfg.Program) (*CompiledProgram, error) {
	compileMu.Lock()
	if e, ok := compileCache[prog]; ok {
		compileMu.Unlock()
		return e.cp, e.err
	}
	compileMu.Unlock()
	cp, err := Compile(prog)
	compileMu.Lock()
	if len(compileCache) >= compileCacheLimit {
		compileCache = map[*cdfg.Program]compileEntry{}
	}
	compileCache[prog] = compileEntry{cp, err}
	compileMu.Unlock()
	return cp, err
}
