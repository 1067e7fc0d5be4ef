// Package annotate implements the paper's timing annotation phase (§4.3,
// Figs. 2–3): given a lowered program and a processing unit model, it
// estimates every basic block with the core engine and produces the dense
// per-block delay table that the TLM executor and the standalone Go
// generator (internal/codegen) consume — the semantic equivalent of
// inserting a wait() call at the end of each basic block. It also renders
// the annotated program as timed C-like source with an explicit wait()
// per block, mirroring the LLVM-based source regeneration of the paper.
package annotate

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/pum"
)

// Annotated is the result of timing annotation for one (program, PUM) pair.
type Annotated struct {
	Prog *cdfg.Program
	PUM  *pum.PUM
	// Table holds every block's estimate in dense program block order
	// (see core.Table). It is shared read-only with the estimate cache and
	// every other annotation that hit it.
	Table  *core.Table
	Detail core.Detail
	// Elapsed is the wall-clock annotation time (the "Anno." column of the
	// paper's Table 1).
	Elapsed time.Duration
}

// AnnotateCtx runs the estimation engine over every basic block under a
// context, through the worker bound and optional schedule/estimate cache
// of opts (see core.EstimateBlocksCtx): cancellation aborts the block
// fan-out with diag.ErrCanceled/ErrDeadline, and strict estimation
// options (core.EstOptions.Strict) turn unmapped op classes into errors
// instead of degraded fallback estimates. It is the entry point the
// staged pipeline of internal/engine uses.
func AnnotateCtx(ctx context.Context, prog *cdfg.Program, p *pum.PUM, detail core.Detail, opts core.EstOptions) (*Annotated, error) {
	start := time.Now()
	t, err := core.EstimateBlocksCtx(ctx, prog, p, detail, opts)
	if err != nil {
		return nil, err
	}
	return &Annotated{
		Prog:    prog,
		PUM:     p,
		Table:   t,
		Detail:  detail,
		Elapsed: time.Since(start),
	}, nil
}

// DegradedBlocks counts blocks whose estimate used fallback latencies for
// op classes the PUM does not map (graceful-degradation mode).
func (a *Annotated) DegradedBlocks() int { return a.Table.DegradedBlocks() }

// UnmappedOps sums the per-block counts of operations estimated with
// fallback latency because their class is missing from the PUM.
func (a *Annotated) UnmappedOps() int { return a.Table.UnmappedOps() }

// Delays returns the per-block delays in cycles, in dense program block
// order. The slice is shared read-only with the table.
func (a *Annotated) Delays() []float64 { return a.Table.Totals() }

// TotalStatic returns the sum of static block delays, a quick size metric.
func (a *Annotated) TotalStatic() float64 {
	t := 0.0
	for _, d := range a.Delays() {
		t += d
	}
	return t
}

// refC renders an operand in C-like syntax.
func refC(f *cdfg.Function, prog *cdfg.Program, r cdfg.Ref) string {
	switch r.Kind {
	case cdfg.RefConst:
		return fmt.Sprintf("%d", r.Val)
	case cdfg.RefTemp:
		return fmt.Sprintf("t%d", r.Idx)
	case cdfg.RefSlot:
		return f.Slots[r.Idx].Name
	case cdfg.RefGlobal:
		return prog.Globals[r.Idx].Name
	}
	return "_"
}

var opC = map[cdfg.Opcode]string{
	cdfg.OpAdd: "+", cdfg.OpSub: "-", cdfg.OpMul: "*", cdfg.OpDiv: "/",
	cdfg.OpRem: "%", cdfg.OpAnd: "&", cdfg.OpOr: "|", cdfg.OpXor: "^",
	cdfg.OpShl: "<<", cdfg.OpShr: ">>",
	cdfg.OpCmpEq: "==", cdfg.OpCmpNe: "!=", cdfg.OpCmpLt: "<",
	cdfg.OpCmpLe: "<=", cdfg.OpCmpGt: ">", cdfg.OpCmpGe: ">=",
}

// EmitTimedC renders the annotated program as C-like source with an
// explicit wait(cycles) call at the head of every basic block — the shape
// of the timed C code the paper's LLVM backend regenerates.
func (a *Annotated) EmitTimedC() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* timed code generated for PE model %q */\n", a.PUM.Name)
	sb.WriteString("extern void wait(int cycles);\n")
	sb.WriteString("extern void out(int v);\n")
	sb.WriteString("extern void send(int ch, int *arr, int n);\n")
	sb.WriteString("extern void recv(int ch, int *arr, int n);\n\n")
	// Helpers pinning the subset's defined semantics onto C (division and
	// remainder by zero yield 0, INT_MIN/-1 wraps, shift counts mask to 5
	// bits, left shift wraps): compile the artifact with -fwrapv so +,-,*
	// wrap as well.
	sb.WriteString(`static int rt_div(int a, int b) {
  if (b == 0) return 0;
  if (a == (-2147483647 - 1) && b == -1) return a;
  return a / b;
}
static int rt_rem(int a, int b) {
  if (b == 0 || (a == (-2147483647 - 1) && b == -1)) return 0;
  return a % b;
}
static int rt_shl(int a, int b) { return (int)((unsigned)a << (b & 31)); }
static int rt_shr(int a, int b) { return a >> (b & 31); }

`)
	// Prototypes so that forward calls compile as C.
	for _, fn := range a.Prog.Funcs {
		sb.WriteString(funcSigC(fn))
		sb.WriteString(";\n")
	}
	sb.WriteString("\n")
	for _, g := range a.Prog.Globals {
		if g.IsArray {
			fmt.Fprintf(&sb, "int %s[%d]", g.Name, g.Size)
		} else {
			fmt.Fprintf(&sb, "int %s", g.Name)
		}
		if len(g.Init) > 0 {
			fmt.Fprintf(&sb, " = %s", initListC(g.Init, g.IsArray))
		}
		sb.WriteString(";\n")
	}
	sb.WriteString("\n")
	est := a.Table.Estimates()
	for _, fn := range a.Prog.Funcs {
		a.emitFuncC(&sb, fn, est)
		est = est[len(fn.Blocks):]
	}
	return sb.String()
}

func initListC(vals []int32, isArray bool) string {
	if !isArray {
		return fmt.Sprintf("%d", vals[0])
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// funcSigC renders a function's C signature (without body or semicolon).
func funcSigC(fn *cdfg.Function) string {
	ret := "void"
	if fn.ReturnsInt {
		ret = "int"
	}
	var params []string
	for _, p := range fn.Params {
		if p.IsArray {
			params = append(params, fmt.Sprintf("int %s[]", p.Name))
		} else {
			params = append(params, fmt.Sprintf("int %s", p.Name))
		}
	}
	if len(params) == 0 {
		params = []string{"void"}
	}
	return fmt.Sprintf("%s %s(%s)", ret, fn.Name, strings.Join(params, ", "))
}

// emitFuncC renders one function; est holds its blocks' estimates in
// order.
func (a *Annotated) emitFuncC(sb *strings.Builder, fn *cdfg.Function, est []core.Estimate) {
	fmt.Fprintf(sb, "%s {\n", funcSigC(fn))
	for _, s := range fn.Slots {
		if s.IsParam {
			continue
		}
		if s.IsArray {
			fmt.Fprintf(sb, "  int %s[%d] = {0};\n", s.Name, s.Size)
		} else {
			fmt.Fprintf(sb, "  int %s = 0;\n", s.Name)
		}
	}
	if fn.NTemps > 0 {
		var ts []string
		for i := 0; i < fn.NTemps; i++ {
			ts = append(ts, fmt.Sprintf("t%d", i))
		}
		fmt.Fprintf(sb, "  int %s;\n", strings.Join(ts, ", "))
	}
	for i, b := range fn.Blocks {
		e := est[i]
		fmt.Fprintf(sb, "bb%d_%s:\n", b.ID, fn.Name)
		fmt.Fprintf(sb, "  wait(%d); /* sched=%d br=%.2f imem=%.2f dmem=%.2f */\n",
			int64(e.Total), e.Sched, e.BranchPen, e.IDelay, e.DDelay)
		for i := range b.Instrs {
			a.emitInstrC(sb, fn, &b.Instrs[i])
		}
	}
	sb.WriteString("}\n\n")
}

func (a *Annotated) emitInstrC(sb *strings.Builder, fn *cdfg.Function, in *cdfg.Instr) {
	r := func(x cdfg.Ref) string { return refC(fn, a.Prog, x) }
	switch in.Op {
	case cdfg.OpMov:
		fmt.Fprintf(sb, "  %s = %s;\n", r(in.Dst), r(in.A))
	case cdfg.OpNeg:
		fmt.Fprintf(sb, "  %s = -%s;\n", r(in.Dst), r(in.A))
	case cdfg.OpNot:
		fmt.Fprintf(sb, "  %s = ~%s;\n", r(in.Dst), r(in.A))
	case cdfg.OpLoad:
		fmt.Fprintf(sb, "  %s = %s[%s];\n", r(in.Dst), r(in.Arr), r(in.A))
	case cdfg.OpStore:
		fmt.Fprintf(sb, "  %s[%s] = %s;\n", r(in.Arr), r(in.A), r(in.B))
	case cdfg.OpBr:
		fmt.Fprintf(sb, "  if (%s) goto bb%d_%s; else goto bb%d_%s;\n",
			r(in.A), in.Then.ID, fn.Name, in.Else.ID, fn.Name)
	case cdfg.OpJmp:
		fmt.Fprintf(sb, "  goto bb%d_%s;\n", in.Target.ID, fn.Name)
	case cdfg.OpRet:
		if in.A.Kind == cdfg.RefNone {
			sb.WriteString("  return;\n")
		} else {
			fmt.Fprintf(sb, "  return %s;\n", r(in.A))
		}
	case cdfg.OpCall:
		var args []string
		for _, ar := range in.Args {
			args = append(args, r(ar))
		}
		if in.Dst.Kind == cdfg.RefNone {
			fmt.Fprintf(sb, "  %s(%s);\n", in.Callee.Name, strings.Join(args, ", "))
		} else {
			fmt.Fprintf(sb, "  %s = %s(%s);\n", r(in.Dst), in.Callee.Name, strings.Join(args, ", "))
		}
	case cdfg.OpSend:
		fmt.Fprintf(sb, "  send(%d, %s, %s);\n", in.Chan, r(in.Arr), r(in.A))
	case cdfg.OpRecv:
		fmt.Fprintf(sb, "  recv(%d, %s, %s);\n", in.Chan, r(in.Arr), r(in.A))
	case cdfg.OpOut:
		fmt.Fprintf(sb, "  out(%s);\n", r(in.A))
	case cdfg.OpDiv:
		fmt.Fprintf(sb, "  %s = rt_div(%s, %s);\n", r(in.Dst), r(in.A), r(in.B))
	case cdfg.OpRem:
		fmt.Fprintf(sb, "  %s = rt_rem(%s, %s);\n", r(in.Dst), r(in.A), r(in.B))
	case cdfg.OpShl:
		fmt.Fprintf(sb, "  %s = rt_shl(%s, %s);\n", r(in.Dst), r(in.A), r(in.B))
	case cdfg.OpShr:
		fmt.Fprintf(sb, "  %s = rt_shr(%s, %s);\n", r(in.Dst), r(in.A), r(in.B))
	default:
		fmt.Fprintf(sb, "  %s = %s %s %s;\n", r(in.Dst), r(in.A), opC[in.Op], r(in.B))
	}
}

// Summary renders a human-readable annotation report sorted by function.
func (a *Annotated) Summary() string {
	type row struct {
		name     string
		blocks   int
		degraded int
		delay    float64
	}
	var rows []row
	est := a.Table.Estimates()
	for _, fn := range a.Prog.Funcs {
		r := row{name: fn.Name, blocks: len(fn.Blocks)}
		for _, e := range est[:len(fn.Blocks)] {
			r.delay += e.Total
			if e.Degraded() {
				r.degraded++
			}
		}
		rows = append(rows, r)
		est = est[len(fn.Blocks):]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var sb strings.Builder
	fmt.Fprintf(&sb, "annotation for PE %q (policy %s)\n", a.PUM.Name, a.PUM.Policy)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s blocks=%-4d static-delay=%.0f", r.name, r.blocks, r.delay)
		if r.degraded > 0 {
			fmt.Fprintf(&sb, " DEGRADED=%d", r.degraded)
		}
		sb.WriteString("\n")
	}
	if d := a.DegradedBlocks(); d > 0 {
		fmt.Fprintf(&sb, "  degraded: %d blocks (%d ops) estimated with fallback latency for unmapped op classes\n",
			d, a.UnmappedOps())
	}
	fmt.Fprintf(&sb, "  annotation time: %v\n", a.Elapsed)
	return sb.String()
}
