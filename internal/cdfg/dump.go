package cdfg

import (
	"fmt"
	"strings"
)

// Dump renders the program IR as readable text, for debugging, tests and the
// CLI tools' -dump flag.
func (p *Program) Dump() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		if g.IsArray {
			fmt.Fprintf(&sb, "global %s[%d]", g.Name, g.Size)
		} else {
			fmt.Fprintf(&sb, "global %s", g.Name)
		}
		if len(g.Init) > 0 {
			fmt.Fprintf(&sb, " = %v", g.Init)
		}
		sb.WriteString("\n")
	}
	for _, f := range p.Funcs {
		sb.WriteString(f.Dump())
	}
	return sb.String()
}

// Dump renders one function.
func (f *Function) Dump() string {
	var sb strings.Builder
	ret := "void"
	if f.ReturnsInt {
		ret = "int"
	}
	var params []string
	for _, p := range f.Params {
		if p.IsArray {
			params = append(params, p.Name+"[]")
		} else {
			params = append(params, p.Name)
		}
	}
	fmt.Fprintf(&sb, "func %s %s(%s)  slots=%d temps=%d\n",
		ret, f.Name, strings.Join(params, ", "), len(f.Slots), f.NTemps)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "  bb%d:\n", b.ID)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "    %s\n", formatInstr(&b.Instrs[i]))
		}
	}
	return sb.String()
}

func formatInstr(in *Instr) string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("%s = load %s[%s]", in.Dst, in.Arr, in.A)
	case OpStore:
		return fmt.Sprintf("store %s[%s] = %s", in.Arr, in.A, in.B)
	case OpBr:
		return fmt.Sprintf("br %s, bb%d, bb%d", in.A, in.Then.ID, in.Else.ID)
	case OpJmp:
		return fmt.Sprintf("jmp bb%d", in.Target.ID)
	case OpRet:
		if in.A.Kind == RefNone {
			return "ret"
		}
		return fmt.Sprintf("ret %s", in.A)
	case OpCall:
		var args []string
		for _, a := range in.Args {
			args = append(args, a.String())
		}
		callee := "?"
		if in.Callee != nil {
			callee = in.Callee.Name
		}
		if in.Dst.Kind == RefNone {
			return fmt.Sprintf("call %s(%s)", callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s = call %s(%s)", in.Dst, callee, strings.Join(args, ", "))
	case OpSend:
		return fmt.Sprintf("send ch%d, %s, %s", in.Chan, in.Arr, in.A)
	case OpRecv:
		return fmt.Sprintf("recv ch%d, %s, %s", in.Chan, in.Arr, in.A)
	case OpOut:
		return fmt.Sprintf("out %s", in.A)
	case OpMov:
		return fmt.Sprintf("%s = %s", in.Dst, in.A)
	case OpNeg, OpNot:
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	default:
		return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	}
}
