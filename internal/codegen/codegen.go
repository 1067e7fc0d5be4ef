// Package codegen transpiles CDFG programs to real Go source — the
// ahead-of-time third engine tier of the paper's speed story. Where the
// compiled interpreter (internal/interp/exec.go) still pays a dispatch
// per flat instruction, the generated code is native straight-line Go:
// temps and scalar slots become Go variables, per-block delay
// annotations become one floating-point add against the pending pool,
// profile counts become a counter increment, and branches/calls become
// goto/if and plain method calls.
//
// The same lowering ships two ways:
//
//   - EngineSource emits the in-process engines of a group of programs
//     (an app's designs): each registers itself by its program's code
//     fingerprint (interp.RegisterGen) and embeds the group's base type,
//     which embeds interp.GenBase and holds the globals and every function
//     the members emit identically, once; `esegen -registry`
//     pre-generates these for the example apps so `-exec=gen` needs no
//     plugin support.
//   - StandaloneFiles emits a self-contained `go build`-able package: the
//     per-PE timed process code with its annotated delays baked in as
//     hex float constants, a miniature cooperative kernel with the
//     design's arbitrated bus, and a main that prints the canonical
//     {cycles_by_pe, out_by_pe, steps} JSON that `esetlm -json` also
//     emits.
//
// The generated code reproduces the tree-walker's observable semantics
// exactly — same Out/Steps/CyclesByPE, same error text, same per-block
// bookkeeping order — and the generator rejects exactly the IR shapes
// the compiled engine rejects, so every tier fails on the same programs.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"ese/internal/cdfg"
)

// mode selects the emission target.
type mode int

const (
	modeRegistry mode = iota
	modeStandalone
)

// progEmit drives the lowering of one program for one receiver type.
type progEmit struct {
	w      *bytes.Buffer
	prog   *cdfg.Program
	mode   mode
	typ    string // receiver type name
	fnIdx  map[*cdfg.Function]int
	fnName []string // method name per function index
	// blockID is the dense program-wide numbering, identical to the
	// compiled engine's (functions in order, blocks in order), so the
	// registry engine's profile counters and delay table line up.
	blockID map[*cdfg.Block]int
	// delays holds the baked per-block delays, indexed by blockID
	// (standalone mode only).
	delays []float64
	gname  []string // Go field name per global index
}

func newProgEmit(prog *cdfg.Program, m mode, typ string, delays []float64) *progEmit {
	p := &progEmit{
		w:       &bytes.Buffer{},
		prog:    prog,
		mode:    m,
		typ:     typ,
		fnIdx:   make(map[*cdfg.Function]int, len(prog.Funcs)),
		blockID: make(map[*cdfg.Block]int),
		delays:  delays,
	}
	for i, fn := range prog.Funcs {
		p.fnIdx[fn] = i
		p.fnName = append(p.fnName, fmt.Sprintf("f%d_%s", i, ident(fn.Name)))
		for _, b := range fn.Blocks {
			p.blockID[b] = len(p.blockID)
		}
	}
	for i, g := range prog.Globals {
		p.gname = append(p.gname, fmt.Sprintf("g%d_%s", i, ident(g.Name)))
	}
	return p
}

func (p *progEmit) pf(format string, args ...any) {
	fmt.Fprintf(p.w, format, args...)
}

// helper returns a runtime helper reference: package-qualified for
// registry mode (the helpers live in interp), local for standalone.
func (p *progEmit) helper(name string) string {
	if p.mode == modeRegistry {
		return "interp." + strings.ToUpper(name[:1]) + name[1:]
	}
	return name
}

// ident sanitizes an IR name into a Go identifier fragment.
func ident(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// hexFloat renders a float64 exactly (hex mantissa), so baked delay
// constants survive the round trip bit-for-bit.
func hexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// gofmtBytes runs the emitted source through go/format so committed
// generated files are gofmt-clean by construction.
func gofmtBytes(src []byte) ([]byte, error) {
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("codegen: emitted source does not parse: %w", err)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Function lowering (shared by both modes)

var cmpGoOp = map[cdfg.Opcode]string{
	cdfg.OpCmpEq: "==", cdfg.OpCmpNe: "!=", cdfg.OpCmpLt: "<",
	cdfg.OpCmpLe: "<=", cdfg.OpCmpGt: ">", cdfg.OpCmpGe: ">=",
}

var binGoOp = map[cdfg.Opcode]string{
	cdfg.OpAdd: "+", cdfg.OpSub: "-", cdfg.OpMul: "*",
	cdfg.OpAnd: "&", cdfg.OpOr: "|", cdfg.OpXor: "^",
}

// fnEmit carries per-function lowering state.
type fnEmit struct {
	p         *progEmit
	fn        *cdfg.Function
	slotName  []string // Go name per slot index
	tempReads []int
	inFn      map[*cdfg.Block]bool
}

// countTempReads mirrors the compiled engine's fusion-safety census: how
// many instruction operands read each temp anywhere in the function.
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

// emitFunc lowers one function to a Go method on the receiver type.
func (p *progEmit) emitFunc(fn *cdfg.Function) error {
	if len(fn.Blocks) == 0 {
		return fmt.Errorf("function has no blocks")
	}
	e := &fnEmit{
		p:         p,
		fn:        fn,
		slotName:  make([]string, len(fn.Slots)),
		tempReads: countTempReads(fn),
		inFn:      make(map[*cdfg.Block]bool, len(fn.Blocks)),
	}
	for i, s := range fn.Slots {
		e.slotName[i] = fmt.Sprintf("v%d_%s", i, ident(s.Name))
	}
	for _, b := range fn.Blocks {
		e.inFn[b] = true
	}
	// Reachable blocks get code; unreachable blocks are still validated
	// (same rejection set as the compiled engine) but not emitted, since
	// an unreferenced Go label is a compile error.
	reach := make(map[*cdfg.Block]bool, len(fn.Blocks))
	work := []*cdfg.Block{fn.Entry()}
	reach[fn.Entry()] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, s := range b.Succs() {
			if s != nil && !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}

	// Signature: parameters in order, named like their slots.
	var params []string
	for _, ps := range fn.Params {
		si := -1
		for j, s := range fn.Slots {
			if s == ps {
				si = j
				break
			}
		}
		if si < 0 {
			return fmt.Errorf("parameter %d has no slot", ps.ParamIx)
		}
		typ := "int32"
		if ps.IsArray {
			typ = "[]int32"
		}
		params = append(params, e.slotName[si]+" "+typ)
	}
	p.pf("func (s *%s) %s(%s) (int32, error) {\n", p.typ, p.fnName[p.fnIdx[fn]], strings.Join(params, ", "))

	// Declarations: temps, scalar locals, array locals — all up front so
	// the gotos below never jump over a declaration.
	var decls, names []string
	for i := 0; i < fn.NTemps; i++ {
		decls = append(decls, fmt.Sprintf("var t%d int32", i))
		names = append(names, fmt.Sprintf("t%d", i))
	}
	for i, s := range fn.Slots {
		if s.IsParam {
			continue
		}
		if s.IsArray {
			decls = append(decls, fmt.Sprintf("var %s [%d]int32", e.slotName[i], s.Size))
		} else {
			decls = append(decls, fmt.Sprintf("var %s int32", e.slotName[i]))
		}
		names = append(names, e.slotName[i])
	}
	for _, d := range decls {
		p.pf("\t%s\n", d)
	}
	if len(names) > 0 {
		p.pf("\t%s = %s\n", strings.Repeat("_, ", len(names)-1)+"_", strings.Join(names, ", "))
	}
	p.pf("\tgoto bb%d\n", fn.Entry().ID)

	for _, b := range fn.Blocks {
		body, err := e.lowerBlock(b)
		if err != nil {
			return fmt.Errorf("bb%d: %w", b.ID, err)
		}
		if reach[b] {
			p.w.WriteString(body)
		}
	}
	p.pf("}\n\n")
	return nil
}

// lowerBlock produces the label, the bookkeeping prologue and the lowered
// body of one basic block (validating it regardless of reachability).
func (e *fnEmit) lowerBlock(b *cdfg.Block) (string, error) {
	var sb strings.Builder
	pf := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }
	p := e.p
	pf("bb%d:\n", b.ID)

	n := len(b.Instrs)
	if p.mode == modeRegistry {
		id := p.blockID[b]
		pf("\tif s.Counts != nil {\n\t\ts.Counts[%d]++\n\t}\n", id)
		pf("\tif s.OnDelayFn != nil {\n\t\tif err := s.OnDelayFn(s.DelayTab[%d]); err != nil {\n\t\t\treturn 0, err\n\t\t}\n\t} else {\n\t\ts.Pend += s.DelayTab[%d]\n\t}\n", id, id)
		if n > 0 {
			pf("\ts.NSteps += %d\n", n)
		}
		pf("\tif s.Lim != 0 && s.NSteps > s.Lim {\n\t\treturn 0, interp.ErrLimit\n\t}\n")
		m := n
		if m == 0 {
			m = 1
		}
		pf("\tif s.Ctx != nil {\n\t\tif s.Countdown <= %d {\n\t\t\tif err := s.CtxCheck(); err != nil {\n\t\t\t\treturn 0, err\n\t\t\t}\n\t\t} else {\n\t\t\ts.Countdown -= %d\n\t\t}\n\t}\n", m, m)
	} else {
		if d := p.delays[p.blockID[b]]; d != 0 {
			pf("\ts.env.pend += %s // %.6g cycles\n", hexFloat(d), d)
		}
		if n > 0 {
			pf("\ts.env.steps += %d\n", n)
		}
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
			// Same rejection as the compiled engine: the tree-walker keeps
			// executing past a mid-block Br/Jmp, which native control flow
			// cannot reproduce.
			return "", fmt.Errorf("terminator %s before end of block", in.Op)
		}
		// Compare-and-branch fusion (mirrors the compiled engine's
		// peephole): a compare whose destination temp is read exactly once
		// — by the immediately following branch — folds into the branch
		// condition; leaving the temp unwritten is then unobservable.
		if i+1 < len(b.Instrs) {
			nx := &b.Instrs[i+1]
			if op, ok := cmpGoOp[in.Op]; ok && nx.Op == cdfg.OpBr &&
				in.Dst.Kind == cdfg.RefTemp && nx.A.Kind == cdfg.RefTemp &&
				in.Dst.Idx == nx.A.Idx && in.Dst.Idx >= 0 &&
				in.Dst.Idx < len(e.tempReads) && e.tempReads[in.Dst.Idx] == 1 {
				a, err := e.rv(in.A)
				if err != nil {
					return "", err
				}
				bb, err := e.rv(in.B)
				if err != nil {
					return "", err
				}
				if err := e.checkBr(nx); err != nil {
					return "", err
				}
				pf("\tif %s %s %s {\n\t\tgoto bb%d\n\t}\n\tgoto bb%d\n", a, op, bb, nx.Then.ID, nx.Else.ID)
				return sb.String(), nil // the branch is the terminator
			}
		}
		if err := e.lowerInstr(&sb, in); err != nil {
			return "", err
		}
	}
	if t := b.Terminator(); t == nil || !t.Op.IsTerminator() {
		// Keep the tree-walker's exact runtime diagnostic for malformed
		// hand-built IR instead of refusing to generate it.
		pf("\treturn 0, %s(%d, %q)\n", p.helper("genFellThrough"), b.ID, e.fn.Name)
	}
	return sb.String(), nil
}

func (e *fnEmit) checkBr(in *cdfg.Instr) error {
	if in.Then == nil || in.Else == nil {
		return fmt.Errorf("branch with missing target")
	}
	if !e.inFn[in.Then] || !e.inFn[in.Else] {
		return fmt.Errorf("branch to block outside function")
	}
	return nil
}

// rv resolves a scalar operand to a Go expression.
func (e *fnEmit) rv(r cdfg.Ref) (string, error) {
	switch r.Kind {
	case cdfg.RefConst:
		return fmt.Sprintf("int32(%d)", r.Val), nil
	case cdfg.RefTemp:
		return fmt.Sprintf("t%d", r.Idx), nil
	case cdfg.RefSlot:
		if e.fn.Slots[r.Idx].IsArray {
			return "", fmt.Errorf("array slot s%d used as a scalar", r.Idx)
		}
		return e.slotName[r.Idx], nil
	case cdfg.RefGlobal:
		if e.p.prog.Globals[r.Idx].IsArray {
			return "", fmt.Errorf("array global g%d used as a scalar", r.Idx)
		}
		return "s." + e.p.gname[r.Idx], nil
	}
	return "", fmt.Errorf("unresolvable scalar operand %s", r)
}

// wv resolves a destination operand to a Go lvalue.
func (e *fnEmit) wv(r cdfg.Ref) (string, error) {
	switch r.Kind {
	case cdfg.RefTemp, cdfg.RefSlot, cdfg.RefGlobal:
		return e.rv(r)
	}
	return "", fmt.Errorf("operand %s is not writable", r)
}

// av resolves an array base operand to a Go expression that supports
// indexing, len, and slicing (a local [N]int32 array, a []int32
// parameter, or a global array field).
func (e *fnEmit) av(r cdfg.Ref) (string, error) {
	switch r.Kind {
	case cdfg.RefSlot:
		if !e.fn.Slots[r.Idx].IsArray {
			return "", fmt.Errorf("scalar slot s%d used as an array base", r.Idx)
		}
		return e.slotName[r.Idx], nil
	case cdfg.RefGlobal:
		if !e.p.prog.Globals[r.Idx].IsArray {
			return "", fmt.Errorf("scalar global g%d used as an array base", r.Idx)
		}
		return "s." + e.p.gname[r.Idx], nil
	}
	return "", fmt.Errorf("operand %s is not an array base", r)
}

func (e *fnEmit) lowerInstr(sb *strings.Builder, in *cdfg.Instr) error {
	p := e.p
	pf := func(format string, args ...any) { fmt.Fprintf(sb, format, args...) }
	pos := in.Pos.String()
	switch in.Op {
	case cdfg.OpNop:
		return nil
	case cdfg.OpMov, cdfg.OpNeg, cdfg.OpNot:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		switch in.Op {
		case cdfg.OpNeg:
			a = "-" + a
		case cdfg.OpNot:
			a = "^" + a
		}
		pf("\t%s = %s\n", dst, a)
	case cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpAnd, cdfg.OpOr, cdfg.OpXor:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		b, err := e.rv(in.B)
		if err != nil {
			return err
		}
		pf("\t%s = %s %s %s\n", dst, a, binGoOp[in.Op], b)
	case cdfg.OpDiv, cdfg.OpRem:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		b, err := e.rv(in.B)
		if err != nil {
			return err
		}
		h := p.helper("rtDiv")
		if in.Op == cdfg.OpRem {
			h = p.helper("rtRem")
		}
		pf("\t%s = %s(%s, %s)\n", dst, h, a, b)
	case cdfg.OpShl, cdfg.OpShr:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		b, err := e.rv(in.B)
		if err != nil {
			return err
		}
		op := "<<"
		if in.Op == cdfg.OpShr {
			op = ">>"
		}
		pf("\t%s = %s %s (uint32(%s) & 31)\n", dst, a, op, b)
	case cdfg.OpCmpEq, cdfg.OpCmpNe, cdfg.OpCmpLt, cdfg.OpCmpLe, cdfg.OpCmpGt, cdfg.OpCmpGe:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		b, err := e.rv(in.B)
		if err != nil {
			return err
		}
		pf("\t%s = %s(%s %s %s)\n", dst, p.helper("rtBool"), a, cmpGoOp[in.Op], b)
	case cdfg.OpLoad:
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		ix, err := e.rv(in.A)
		if err != nil {
			return err
		}
		arr, err := e.av(in.Arr)
		if err != nil {
			return err
		}
		pf("\t{\n\t\tix := %s\n\t\tif ix < 0 || int(ix) >= len(%s) {\n\t\t\treturn 0, %s(%q, ix, len(%s), %q)\n\t\t}\n\t\t%s = %s[ix]\n\t}\n",
			ix, arr, p.helper("genOOB"), pos, arr, e.fn.Name, dst, arr)
	case cdfg.OpStore:
		ix, err := e.rv(in.A)
		if err != nil {
			return err
		}
		val, err := e.rv(in.B)
		if err != nil {
			return err
		}
		arr, err := e.av(in.Arr)
		if err != nil {
			return err
		}
		pf("\t{\n\t\tix := %s\n\t\tif ix < 0 || int(ix) >= len(%s) {\n\t\t\treturn 0, %s(%q, ix, len(%s), %q)\n\t\t}\n\t\t%s[ix] = %s\n\t}\n",
			ix, arr, p.helper("genOOB"), pos, arr, e.fn.Name, arr, val)
	case cdfg.OpCall:
		ci, ok := p.fnIdx[in.Callee]
		if !ok {
			return fmt.Errorf("call to a function outside the program")
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("%s called with %d args, want %d",
				in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
		var args []string
		for ai, ar := range in.Args {
			var expr string
			var err error
			if in.Callee.Params[ai].IsArray {
				expr, err = e.av(ar)
				if err == nil {
					expr += "[:]"
				}
			} else {
				expr, err = e.rv(ar)
			}
			if err != nil {
				return fmt.Errorf("arg %d of %s: %w", ai, in.Callee.Name, err)
			}
			args = append(args, expr)
		}
		call := fmt.Sprintf("s.%s(%s)", p.fnName[ci], strings.Join(args, ", "))
		if in.Dst.Kind == cdfg.RefNone {
			pf("\tif _, err := %s; err != nil {\n\t\treturn 0, err\n\t}\n", call)
			return nil
		}
		dst, err := e.wv(in.Dst)
		if err != nil {
			return err
		}
		pf("\t{\n\t\tr, err := %s\n\t\tif err != nil {\n\t\t\treturn 0, err\n\t\t}\n\t\t%s = r\n\t}\n", call, dst)
	case cdfg.OpSend, cdfg.OpRecv:
		cnt, err := e.rv(in.A)
		if err != nil {
			return err
		}
		arr, err := e.av(in.Arr)
		if err != nil {
			return err
		}
		what, rangeHelper, fnField := "send", "genSendRange", "SendFn"
		if in.Op == cdfg.OpRecv {
			what, rangeHelper, fnField = "recv", "genRecvRange", "RecvFn"
		}
		pf("\t{\n\t\tn := %s\n\t\tif n < 0 || int(n) > len(%s) {\n\t\t\treturn 0, %s(%q, n, len(%s))\n\t\t}\n",
			cnt, arr, p.helper(rangeHelper), pos, arr)
		if p.mode == modeRegistry {
			pf("\t\tif s.%s == nil {\n\t\t\treturn 0, %s(%q, %q, %d)\n\t\t}\n",
				fnField, p.helper("genNoChan"), pos, what, in.Chan)
			pf("\t\tif err := s.%s(%d, %s[:n]); err != nil {\n\t\t\treturn 0, err\n\t\t}\n\t}\n",
				fnField, in.Chan, arr)
		} else {
			pf("\t\ts.env.%s(%d, %s[:n])\n\t}\n", what, in.Chan, arr)
		}
	case cdfg.OpOut:
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		if p.mode == modeRegistry {
			pf("\ts.Out = append(s.Out, %s)\n", a)
		} else {
			pf("\ts.env.out(%s)\n", a)
		}
	case cdfg.OpBr:
		if err := e.checkBr(in); err != nil {
			return err
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		pf("\tif %s != 0 {\n\t\tgoto bb%d\n\t}\n\tgoto bb%d\n", a, in.Then.ID, in.Else.ID)
	case cdfg.OpJmp:
		if in.Target == nil {
			return fmt.Errorf("jump with missing target")
		}
		if !e.inFn[in.Target] {
			return fmt.Errorf("branch to block outside function")
		}
		pf("\tgoto bb%d\n", in.Target.ID)
	case cdfg.OpRet:
		if in.A.Kind == cdfg.RefNone {
			pf("\treturn 0, nil\n")
			return nil
		}
		a, err := e.rv(in.A)
		if err != nil {
			return err
		}
		pf("\treturn %s, nil\n", a)
	default:
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
	return nil
}

// emitFuncs lowers every function, in program order, and returns each
// one's emitted text; the caller wraps with mode-specific scaffolding.
func (p *progEmit) emitFuncs() ([]string, error) {
	texts := make([]string, len(p.prog.Funcs))
	for i, fn := range p.prog.Funcs {
		start := p.w.Len()
		if err := p.emitFunc(fn); err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", fn.Name, err)
		}
		texts[i] = string(p.w.Bytes()[start:])
	}
	return texts, nil
}
