package cdfg

import (
	"fmt"
	"strings"
)

// DotCFG renders a function's control-flow graph in Graphviz dot syntax:
// one record node per basic block with its instruction listing, edges for
// branch and jump targets.
func (f *Function) DotCFG() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", "cfg_"+f.Name)
	sb.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=9];\n")
	for _, b := range f.Blocks {
		lines := []string{fmt.Sprintf("bb%d", b.ID)}
		for i := range b.Instrs {
			lines = append(lines, formatInstr(&b.Instrs[i]))
		}
		label := strings.Join(lines, "\\l") + "\\l"
		label = strings.ReplaceAll(label, "\"", "\\\"")
		fmt.Fprintf(&sb, "  bb%d [label=\"%s\"];\n", b.ID, label)
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case OpBr:
			fmt.Fprintf(&sb, "  bb%d -> bb%d [label=\"T\"];\n", b.ID, t.Then.ID)
			fmt.Fprintf(&sb, "  bb%d -> bb%d [label=\"F\"];\n", b.ID, t.Else.ID)
		case OpJmp:
			fmt.Fprintf(&sb, "  bb%d -> bb%d;\n", b.ID, t.Target.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// DotDFG renders one basic block's data-flow graph in dot syntax: one node
// per operation, one edge per dependency — the graph Algorithm 1 schedules.
func DotDFG(b *Block) string {
	d := BuildDFG(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", fmt.Sprintf("dfg_bb%d", b.ID))
	sb.WriteString("  rankdir=TB;\n  node [shape=ellipse, fontname=\"monospace\", fontsize=9];\n")
	for i := range b.Instrs {
		label := strings.ReplaceAll(formatInstr(&b.Instrs[i]), "\"", "\\\"")
		fmt.Fprintf(&sb, "  n%d [label=\"%d: %s\"];\n", i, i, label)
	}
	for i, deps := range d.Deps {
		for _, j := range deps {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", j, i)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
