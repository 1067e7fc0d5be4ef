// Package verify is the cross-model validation layer of the estimation
// toolset: a static verifier for the CDFG IR, a lint for processing unit
// models, and a metamorphic + differential oracle suite that cross-checks
// the three execution paths (tree interpreter, compiled engine, virtual
// ISS board) and the estimator's invariants against each other.
//
// The verifier exists because the IR sits between a front end, a
// simplifier, three executors, an ISA code generator and a scheduler —
// every one of which assumes structural invariants none of them checks.
// A corrupted or hand-built program that violates them fails far from the
// cause (a nil-pointer panic in the TLM, a silently wrong Total). The
// verifier turns those latent failures into stage-tagged diagnostics at
// the pipeline seam, behind engine.Options.Verify and the -verify flag.
//
// All entry points return plain []diag.Diagnostic slices; Failure
// classifies them under the -Werror convention.
package verify

import (
	"fmt"
	"sort"

	"ese/internal/cdfg"
	"ese/internal/diag"
)

// Failure returns the first diagnostic that fails the run: the first
// Error, or the first Warning when werror is set. ok is false when the
// slice contains nothing that severe.
func Failure(ds []diag.Diagnostic, werror bool) (diag.Diagnostic, bool) {
	for _, d := range ds {
		if d.Severity >= diag.Error || (werror && d.Severity == diag.Warning) {
			return d, true
		}
	}
	return diag.Diagnostic{}, false
}

// Program statically verifies a lowered program against the structural
// invariants every IR consumer assumes:
//
//   - every block is non-empty and ends in exactly one terminator
//     (no terminator appears mid-block);
//   - branch/jump targets are non-nil blocks of the same function, and
//     block IDs are unique within a function (the fingerprints and the
//     profiler key on them);
//   - operand indices are in bounds for their kind (temp, slot, global),
//     array bases are array slots/globals, scalar operands are not;
//   - calls name a function of this program with matching arity and
//     array/scalar argument kinds;
//   - every temp is defined on all paths before it is read (forward
//     must-defined dataflow over the CFG);
//   - the per-block DFG is acyclic: dependence edges only point to
//     earlier instructions.
//
// Diagnostics carry "func/bbN" positions. An empty result means the
// program is well formed.
func Program(prog *cdfg.Program) []diag.Diagnostic {
	v := &verifier{prog: prog, funcs: make(map[*cdfg.Function]bool, len(prog.Funcs))}
	for _, fn := range prog.Funcs {
		v.funcs[fn] = true
	}
	for _, fn := range prog.Funcs {
		v.function(fn)
	}
	return v.ds
}

// verifier carries the per-program verification state.
type verifier struct {
	prog  *cdfg.Program
	funcs map[*cdfg.Function]bool
	ds    []diag.Diagnostic

	// Per-function state.
	fn     *cdfg.Function
	blocks map[*cdfg.Block]bool
}

func (v *verifier) errorf(pos, format string, args ...any) {
	v.ds = append(v.ds, diag.Diagnostic{
		Severity: diag.Error, Stage: diag.StageVerify, Pos: pos,
		Msg: fmt.Sprintf(format, args...),
	})
}

// pos renders the canonical "func/bbN" location of a block.
func (v *verifier) pos(b *cdfg.Block) string {
	return fmt.Sprintf("%s/bb%d", v.fn.Name, b.ID)
}

func (v *verifier) function(fn *cdfg.Function) {
	v.fn = fn
	if len(fn.Blocks) == 0 {
		v.errorf(fn.Name, "function has no blocks")
		return
	}
	v.blocks = make(map[*cdfg.Block]bool, len(fn.Blocks))
	ids := make(map[int]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		v.blocks[b] = true
		if ids[b.ID] {
			v.errorf(v.pos(b), "duplicate block ID %d in function %s", b.ID, fn.Name)
		}
		ids[b.ID] = true
	}
	structOK := true
	for _, b := range fn.Blocks {
		if !v.block(b) {
			structOK = false
		}
	}
	// The dataflow and DFG checks assume per-block structure holds; on a
	// structurally broken function they would report noise after the root
	// cause (or walk nil successors).
	if structOK {
		v.defBeforeUse()
		for _, b := range fn.Blocks {
			v.acyclicDFG(b)
		}
	}
}

// block verifies one block's shape and instructions, reporting whether it
// is structurally sound (non-empty, exactly one trailing terminator, all
// targets in-function).
func (v *verifier) block(b *cdfg.Block) bool {
	pos := v.pos(b)
	if len(b.Instrs) == 0 {
		v.errorf(pos, "empty block: no terminator")
		return false
	}
	ok := true
	for i := range b.Instrs {
		in := &b.Instrs[i]
		last := i == len(b.Instrs)-1
		if in.Op.IsTerminator() && !last {
			v.errorf(pos, "#%d: terminator %v in mid-block position", i, in.Op)
			ok = false
		}
		if last && !in.Op.IsTerminator() {
			v.errorf(pos, "#%d: block ends in non-terminator %v", i, in.Op)
			ok = false
		}
		if !v.instr(b, i, in) {
			ok = false
		}
	}
	return ok
}

// target checks one control-flow edge destination.
func (v *verifier) target(b *cdfg.Block, i int, what string, t *cdfg.Block) bool {
	if t == nil {
		v.errorf(v.pos(b), "#%d: %s target is nil", i, what)
		return false
	}
	if !v.blocks[t] {
		v.errorf(v.pos(b), "#%d: %s target bb%d does not belong to function %s", i, what, t.ID, v.fn.Name)
		return false
	}
	return true
}

// readable checks a scalar source operand; none says whether RefNone is
// permitted in this position.
func (v *verifier) readable(b *cdfg.Block, i int, what string, r cdfg.Ref, none bool) {
	pos := v.pos(b)
	switch r.Kind {
	case cdfg.RefNone:
		if !none {
			v.errorf(pos, "#%d: %s operand is missing", i, what)
		}
	case cdfg.RefConst:
	case cdfg.RefTemp:
		if r.Idx < 0 || r.Idx >= v.fn.NTemps {
			v.errorf(pos, "#%d: %s temp t%d out of range [0,%d)", i, what, r.Idx, v.fn.NTemps)
		}
	case cdfg.RefSlot:
		if r.Idx < 0 || r.Idx >= len(v.fn.Slots) {
			v.errorf(pos, "#%d: %s slot s%d out of range [0,%d)", i, what, r.Idx, len(v.fn.Slots))
		} else if v.fn.Slots[r.Idx].IsArray {
			v.errorf(pos, "#%d: %s reads array slot %s as a scalar", i, what, v.fn.Slots[r.Idx].Name)
		}
	case cdfg.RefGlobal:
		if r.Idx < 0 || r.Idx >= len(v.prog.Globals) {
			v.errorf(pos, "#%d: %s global g%d out of range [0,%d)", i, what, r.Idx, len(v.prog.Globals))
		} else if v.prog.Globals[r.Idx].IsArray {
			v.errorf(pos, "#%d: %s reads array global %s as a scalar", i, what, v.prog.Globals[r.Idx].Name)
		}
	default:
		v.errorf(pos, "#%d: %s operand has unknown kind %d", i, what, r.Kind)
	}
}

// writable checks a scalar destination operand.
func (v *verifier) writable(b *cdfg.Block, i int, r cdfg.Ref, none bool) {
	pos := v.pos(b)
	switch r.Kind {
	case cdfg.RefNone:
		if !none {
			v.errorf(pos, "#%d: destination is missing", i)
		}
	case cdfg.RefTemp:
		if r.Idx < 0 || r.Idx >= v.fn.NTemps {
			v.errorf(pos, "#%d: destination temp t%d out of range [0,%d)", i, r.Idx, v.fn.NTemps)
		}
	case cdfg.RefSlot:
		if r.Idx < 0 || r.Idx >= len(v.fn.Slots) {
			v.errorf(pos, "#%d: destination slot s%d out of range [0,%d)", i, r.Idx, len(v.fn.Slots))
		} else if v.fn.Slots[r.Idx].IsArray {
			v.errorf(pos, "#%d: destination writes array slot %s as a scalar", i, v.fn.Slots[r.Idx].Name)
		}
	case cdfg.RefGlobal:
		if r.Idx < 0 || r.Idx >= len(v.prog.Globals) {
			v.errorf(pos, "#%d: destination global g%d out of range [0,%d)", i, r.Idx, len(v.prog.Globals))
		} else if v.prog.Globals[r.Idx].IsArray {
			v.errorf(pos, "#%d: destination writes array global %s as a scalar", i, v.prog.Globals[r.Idx].Name)
		}
	default:
		v.errorf(pos, "#%d: destination has invalid kind %d (const?)", i, r.Kind)
	}
}

// arrayBase checks an Arr operand: a slot or global that is an array.
func (v *verifier) arrayBase(b *cdfg.Block, i int, r cdfg.Ref) {
	pos := v.pos(b)
	switch r.Kind {
	case cdfg.RefSlot:
		if r.Idx < 0 || r.Idx >= len(v.fn.Slots) {
			v.errorf(pos, "#%d: array base slot s%d out of range [0,%d)", i, r.Idx, len(v.fn.Slots))
		} else if !v.fn.Slots[r.Idx].IsArray {
			v.errorf(pos, "#%d: array base names scalar slot %s", i, v.fn.Slots[r.Idx].Name)
		}
	case cdfg.RefGlobal:
		if r.Idx < 0 || r.Idx >= len(v.prog.Globals) {
			v.errorf(pos, "#%d: array base global g%d out of range [0,%d)", i, r.Idx, len(v.prog.Globals))
		} else if !v.prog.Globals[r.Idx].IsArray {
			v.errorf(pos, "#%d: array base names scalar global %s", i, v.prog.Globals[r.Idx].Name)
		}
	default:
		v.errorf(pos, "#%d: array base must be an array slot or global, got %s", i, r)
	}
}

// instr verifies one instruction's operand shape. The returned flag only
// reports control-flow soundness (nil/foreign targets); operand errors
// are diagnosed but do not block the later dataflow passes.
func (v *verifier) instr(b *cdfg.Block, i int, in *cdfg.Instr) bool {
	pos := v.pos(b)
	switch in.Op {
	case cdfg.OpNop:
	case cdfg.OpBr:
		v.readable(b, i, "condition", in.A, false)
		ok := v.target(b, i, "then", in.Then)
		if !v.target(b, i, "else", in.Else) {
			ok = false
		}
		return ok
	case cdfg.OpJmp:
		return v.target(b, i, "jump", in.Target)
	case cdfg.OpRet:
		v.readable(b, i, "return value", in.A, true)
	case cdfg.OpLoad:
		v.arrayBase(b, i, in.Arr)
		v.readable(b, i, "index", in.A, false)
		v.writable(b, i, in.Dst, false)
	case cdfg.OpStore:
		v.arrayBase(b, i, in.Arr)
		v.readable(b, i, "index", in.A, false)
		v.readable(b, i, "value", in.B, false)
	case cdfg.OpSend, cdfg.OpRecv:
		v.arrayBase(b, i, in.Arr)
		v.readable(b, i, "word count", in.A, false)
		if in.Chan < 0 {
			v.errorf(pos, "#%d: negative channel id %d", i, in.Chan)
		}
	case cdfg.OpOut:
		v.readable(b, i, "out", in.A, false)
	case cdfg.OpCall:
		v.call(b, i, in)
	case cdfg.OpMov, cdfg.OpNeg, cdfg.OpNot:
		v.readable(b, i, "operand", in.A, false)
		v.writable(b, i, in.Dst, false)
	default:
		// Binary arithmetic, logic and comparisons.
		v.readable(b, i, "left", in.A, false)
		v.readable(b, i, "right", in.B, false)
		v.writable(b, i, in.Dst, false)
	}
	return true
}

// call verifies an OpCall: known callee, matching arity, array arguments
// exactly where the callee declares array parameters.
func (v *verifier) call(b *cdfg.Block, i int, in *cdfg.Instr) {
	pos := v.pos(b)
	if in.Callee == nil {
		v.errorf(pos, "#%d: call has no callee", i)
		return
	}
	if !v.funcs[in.Callee] {
		v.errorf(pos, "#%d: callee %s is not a function of this program", i, in.Callee.Name)
		return
	}
	if len(in.Args) != len(in.Callee.Params) {
		v.errorf(pos, "#%d: call %s with %d args, wants %d",
			i, in.Callee.Name, len(in.Args), len(in.Callee.Params))
		return
	}
	for ai, a := range in.Args {
		if in.Callee.Params[ai].IsArray {
			v.arrayBase(b, i, a)
		} else {
			v.readable(b, i, fmt.Sprintf("arg %d", ai), a, false)
		}
	}
	v.writable(b, i, in.Dst, true)
}

// ------------------------------------------------------- def-before-use

// bitset is a fixed-size bit vector over the function's temps.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// intersectInto ANDs src into dst, reporting whether dst changed.
func (s bitset) intersect(src bitset) bool {
	changed := false
	for i := range s {
		n := s[i] & src[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s bitset) union(src bitset) {
	for i := range s {
		s[i] |= src[i]
	}
}

func (s bitset) clone() bitset { return append(bitset(nil), s...) }

// tempUse is one read of a temp not preceded by a definition in its own
// block — whether it is an error depends on what flows in from the
// predecessors.
type tempUse struct {
	block *cdfg.Block
	instr int
	temp  int
}

// defBeforeUse runs a forward must-defined dataflow analysis over the
// function's temps and reports every temp read that some path reaches
// without a prior definition. Temps are virtual registers with no
// implicit zero value in the code model, so such a read is undefined
// behavior for every consumer (and the compiled engine would read a
// stale register).
func (v *verifier) defBeforeUse() {
	fn := v.fn
	if fn.NTemps == 0 {
		return
	}
	gen := make(map[*cdfg.Block]bitset, len(fn.Blocks))
	exposed := make([]tempUse, 0)
	for _, b := range fn.Blocks {
		g := newBitset(fn.NTemps)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range v.instrReads(in) {
				if r.Kind == cdfg.RefTemp && r.Idx >= 0 && r.Idx < fn.NTemps && !g.has(r.Idx) {
					exposed = append(exposed, tempUse{block: b, instr: i, temp: r.Idx})
				}
			}
			if d := instrWrite(in); d.Kind == cdfg.RefTemp && d.Idx >= 0 && d.Idx < fn.NTemps {
				g.set(d.Idx)
			}
		}
		gen[b] = g
	}
	// IN[entry] = ∅; IN[b] = ∩ over preds of OUT[pred]; OUT[b] = IN[b] ∪ gen[b].
	// Non-entry blocks start from the full set (standard must-analysis
	// initialization) and a worklist drives them down to the fixpoint.
	in := make(map[*cdfg.Block]bitset, len(fn.Blocks))
	for _, b := range fn.Blocks {
		s := newBitset(fn.NTemps)
		if b != fn.Entry() {
			s.fill()
		}
		in[b] = s
	}
	preds := make(map[*cdfg.Block][]*cdfg.Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	work := append([]*cdfg.Block(nil), fn.Blocks...)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].clone()
		out.union(gen[b])
		for _, s := range b.Succs() {
			if s == fn.Entry() {
				continue // entry keeps its empty IN: temps never flow in
			}
			if in[s].intersect(out) {
				work = append(work, s)
			}
		}
	}
	for _, u := range exposed {
		if !in[u.block].has(u.temp) {
			v.errorf(v.pos(u.block), "#%d: temp t%d read before any definition reaches it",
				u.instr, u.temp)
		}
	}
}

// instrReads lists the scalar refs an instruction reads, in evaluation
// order (reads happen before the write, so "t1 = t1 + 1" is well formed).
func (v *verifier) instrReads(in *cdfg.Instr) []cdfg.Ref {
	switch in.Op {
	case cdfg.OpJmp, cdfg.OpNop:
		return nil
	case cdfg.OpBr, cdfg.OpRet, cdfg.OpOut, cdfg.OpSend, cdfg.OpRecv:
		return []cdfg.Ref{in.A}
	case cdfg.OpLoad, cdfg.OpMov, cdfg.OpNeg, cdfg.OpNot:
		return []cdfg.Ref{in.A}
	case cdfg.OpCall:
		return in.Args
	default: // stores and binary ops
		return []cdfg.Ref{in.A, in.B}
	}
}

// instrWrite returns the scalar ref an instruction defines, or RefNone.
func instrWrite(in *cdfg.Instr) cdfg.Ref {
	switch in.Op {
	case cdfg.OpStore, cdfg.OpBr, cdfg.OpJmp, cdfg.OpRet, cdfg.OpOut,
		cdfg.OpSend, cdfg.OpRecv, cdfg.OpNop:
		return cdfg.Ref{}
	default:
		return in.Dst
	}
}

// ------------------------------------------------------- DFG acyclicity

// acyclicDFG checks that the block's dependence graph is a DAG in
// instruction order: every edge of Deps[i] must point to an earlier
// instruction. BuildDFG constructs it that way; a violation means the
// block was mutated behind the builder's invariants and Algorithm 1's
// topological scheduling would loop or drop operations.
func (v *verifier) acyclicDFG(b *cdfg.Block) {
	d := cdfg.BuildDFG(b)
	for i, deps := range d.Deps {
		for _, j := range deps {
			if j < 0 || j >= i {
				v.errorf(v.pos(b), "#%d: DFG edge to #%d breaks instruction-order acyclicity", i, j)
			}
		}
	}
}

// UsedClasses counts the operation classes used by the functions reachable
// from the named entries (every function when entries is empty or names
// nothing). The PUM lint compares this against the model's op-mapping
// coverage, so a hardware PE is only held to the classes its own entry
// actually executes.
func UsedClasses(prog *cdfg.Program, entries ...string) map[cdfg.Class]int {
	fns := prog.Reachable(entries...)
	if len(fns) == 0 {
		fns = prog.Funcs
	}
	used := make(map[cdfg.Class]int)
	for _, fn := range fns {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if c := cdfg.OpClass(b.Instrs[i].Op); c != cdfg.ClassNone {
					used[c]++
				}
			}
		}
	}
	return used
}

// sortedClasses returns the keys of a class-usage map in enum order, for
// deterministic diagnostics.
func sortedClasses(m map[cdfg.Class]int) []cdfg.Class {
	out := make([]cdfg.Class, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
