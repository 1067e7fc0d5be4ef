package cdfg

// Simplify performs control-flow cleanup on a function, the way a compiler
// back end would before emitting code:
//
//   - jump threading: branches and jumps that target a block containing
//     only an unconditional jump are redirected to its destination;
//   - block merging: a block ending in an unconditional jump to a block
//     with no other predecessors absorbs that block;
//   - unreachable-block removal and renumbering.
//
// The pass preserves semantics exactly (it never moves instructions across
// a conditional edge) but changes the basic-block size distribution, which
// is the knob the estimation technique is most sensitive to: fewer, larger
// blocks mean fewer per-block scheduling boundaries. SimplifyProgram runs
// it over every function.
func Simplify(f *Function) {
	changed := true
	for changed {
		changed = false
		if threadJumps(f) {
			changed = true
		}
		if mergeBlocks(f) {
			changed = true
		}
	}
	removeUnreachable(f)
}

// SimplifyProgram simplifies every function of the program and clears its
// memoized fingerprint table (see BlockFingerprints), which the rewrite
// invalidates.
func SimplifyProgram(p *Program) {
	for _, f := range p.Funcs {
		Simplify(f)
	}
	p.fps.Store(nil)
}

// jumpOnlyTarget returns the final destination reached by following blocks
// that contain only a single unconditional jump (with cycle protection).
func jumpOnlyTarget(b *Block) *Block {
	seen := map[*Block]bool{}
	for len(b.Instrs) == 1 && b.Instrs[0].Op == OpJmp && !seen[b] {
		seen[b] = true
		b = b.Instrs[0].Target
	}
	return b
}

// threadJumps redirects edges through jump-only blocks.
func threadJumps(f *Function) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case OpBr:
			if nt := jumpOnlyTarget(t.Then); nt != t.Then {
				t.Then = nt
				changed = true
			}
			if nt := jumpOnlyTarget(t.Else); nt != t.Else {
				t.Else = nt
				changed = true
			}
		case OpJmp:
			if nt := jumpOnlyTarget(t.Target); nt != t.Target {
				t.Target = nt
				changed = true
			}
		}
	}
	return changed
}

// predCounts maps each block to its predecessor count (entry gets a
// virtual extra predecessor so it is never merged away).
func predCounts(f *Function) map[*Block]int {
	preds := make(map[*Block]int, len(f.Blocks))
	preds[f.Entry()]++
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s]++
		}
	}
	return preds
}

// mergeBlocks absorbs single-predecessor jump successors.
func mergeBlocks(f *Function) bool {
	changed := false
	preds := predCounts(f)
	for _, b := range f.Blocks {
		for {
			t := b.Terminator()
			if t == nil || t.Op != OpJmp {
				break
			}
			s := t.Target
			if s == b || preds[s] != 1 {
				break
			}
			// Absorb s: drop b's jump, append s's instructions.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			s.Instrs = nil // s becomes unreachable and empty
			changed = true
			// b's new terminator may enable further merging; preds of s's
			// successors are unchanged (still one edge, now from b).
		}
	}
	return changed
}

// removeUnreachable drops unreachable blocks and renumbers the rest.
func removeUnreachable(f *Function) {
	if len(f.Blocks) == 0 {
		return
	}
	seen := make(map[*Block]bool, len(f.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			visit(s)
		}
	}
	visit(f.Entry())
	keep := f.Blocks[:0]
	for _, b := range f.Blocks {
		if seen[b] {
			b.ID = len(keep)
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
}
