package interp

import (
	"maps"
	"slices"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/codegen"
)

// FuzzEngines feeds fuzzed source through the front end and, whenever it
// yields a valid program, requires the tree-walking and compiled engines to
// agree on the out stream, step count, block counts and error text. The
// step limit keeps fuzzed infinite loops bounded; limit trips must also
// agree (same ErrLimit at the same step).
//
// The ahead-of-time codegen tier is covered structurally: it must accept
// exactly the programs the compiled engine accepts, and its emitted Go
// source must always gofmt-parse (EngineSource runs the output through
// go/format). Fuzzed programs are not in the generated registry, so the
// generated engine itself cannot execute them here; the full three-way
// behavioral differential runs on the registered corpus in
// internal/codegen/registry.
func FuzzEngines(f *testing.F) {
	for _, src := range diffPrograms {
		f.Add(src)
	}
	f.Add(`int g[4]; void main() { g[1] = 2; out(g[1] / g[0]); }`)
	f.Add(`void main() { int i; for (i = 0; i; i++) out(i); }`)
	f.Add(`int f(int n) { return n ? f(n - 1) : 0; } void main() { out(f(9)); }`)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cfront.Parse("f.c", src)
		if err != nil {
			return
		}
		u, err := cfront.Check(file)
		if err != nil {
			return
		}
		prog, err := cdfg.Lower(u)
		if err != nil {
			return
		}
		tree, err := NewEngine(prog, EngineTree)
		if err != nil {
			return
		}
		comp, err := NewEngine(prog, EngineCompiled)
		if err != nil {
			// Front-end output should always compile; a rejection here is a
			// compiler coverage bug worth surfacing.
			t.Fatalf("front-end program rejected by Compile: %v\nsource:\n%s", err, src)
		}
		if err := codegen.Validate(prog); err != nil {
			t.Fatalf("compiled engine accepts but codegen rejects: %v\nsource:\n%s", err, src)
		}
		if _, err := codegen.EngineSource("registry", "Fuzz", codegen.EngineMember{Sym: "Fuzz", Prog: prog}); err != nil {
			t.Fatalf("codegen emitted unparsable Go: %v\nsource:\n%s", err, src)
		}
		const limit = 200_000
		run := func(e Engine) error {
			e.EnableProfile()
			e.SetLimit(limit)
			return e.Run("main")
		}
		errT, errC := run(tree), run(comp)
		if (errT == nil) != (errC == nil) || (errT != nil && errT.Error() != errC.Error()) {
			t.Fatalf("error mismatch:\n  tree:     %v\n  compiled: %v\nsource:\n%s", errT, errC, src)
		}
		if !slices.Equal(tree.OutStream(), comp.OutStream()) {
			t.Fatalf("out mismatch: tree %v, compiled %v\nsource:\n%s",
				tree.OutStream(), comp.OutStream(), src)
		}
		if tree.StepCount() != comp.StepCount() {
			t.Fatalf("steps mismatch: tree %d, compiled %d\nsource:\n%s",
				tree.StepCount(), comp.StepCount(), src)
		}
		if !maps.Equal(tree.BlockCountsMap(), comp.BlockCountsMap()) {
			t.Fatalf("block count mismatch\nsource:\n%s", src)
		}
	})
}
