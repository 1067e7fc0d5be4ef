package cdfg

import (
	"sync"
	"testing"
)

const fpSrc = `
int work(int a[], int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		if (a[i] > 0) {
			s = s + a[i];
		} else {
			s = s - 1;
		}
	}
	return s;
}
void main() {
	int buf[4];
	int i;
	for (i = 0; i < 4; i = i + 1) {
		buf[i] = i * 3;
	}
	out(work(buf, 4));
}
`

// TestFingerprintStableAcrossRecompilation: the same source compiled
// twice yields pairwise-equal block fingerprints despite distinct block
// pointers — the property the content-addressed cache depends on.
func TestFingerprintStableAcrossRecompilation(t *testing.T) {
	p1 := compile(t, fpSrc)
	p2 := compile(t, fpSrc)
	for i, fn := range p1.Funcs {
		fn2 := p2.Funcs[i]
		for j, b := range fn.Blocks {
			b2 := fn2.Blocks[j]
			if b == b2 {
				t.Fatalf("%s bb%d: recompilation returned the same pointer", fn.Name, b.ID)
			}
			if b.Fingerprint() != b2.Fingerprint() {
				t.Errorf("%s bb%d: fingerprints differ across recompilation", fn.Name, b.ID)
			}
		}
	}
}

// TestFingerprintSensitivity: structurally different blocks hash apart,
// and editing an instruction changes the hash.
func TestFingerprintSensitivity(t *testing.T) {
	p := compile(t, fpSrc)
	seen := make(map[Fingerprint][]*Block)
	total := 0
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			fp := b.Fingerprint()
			seen[fp] = append(seen[fp], b)
			total++
		}
	}
	if len(seen) < 2 {
		t.Fatalf("all %d blocks collided onto %d fingerprints", total, len(seen))
	}
	// Mutating an opcode must change the hash.
	var target *Block
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			if len(b.Instrs) > 0 {
				target = b
			}
		}
	}
	if target == nil {
		t.Fatal("no block with instructions")
	}
	before := target.Fingerprint()
	old := target.Instrs[0].Op
	target.Instrs[0].Op = OpMul
	if old == OpMul {
		target.Instrs[0].Op = OpAdd
	}
	if target.Fingerprint() == before {
		t.Error("changing an opcode did not change the fingerprint")
	}
}

// denseFingerprints recomputes every block's Fingerprint in dense program
// order, bypassing the program's memoized table.
func denseFingerprints(p *Program) []Fingerprint {
	var out []Fingerprint
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			out = append(out, b.Fingerprint())
		}
	}
	return out
}

func equalFingerprints(a, b []Fingerprint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlockFingerprintsTable: the memoized table holds every block's
// Fingerprint in dense program order, is computed once, and the code
// fingerprint hashed from it is stable across recompilation.
func TestBlockFingerprintsTable(t *testing.T) {
	p := compile(t, fpSrc)
	table := p.BlockFingerprints()
	if len(table) != p.NumBlocks() {
		t.Fatalf("table has %d entries, program has %d blocks", len(table), p.NumBlocks())
	}
	if !equalFingerprints(table, denseFingerprints(p)) {
		t.Fatal("table differs from the per-block fingerprints")
	}
	if again := p.BlockFingerprints(); &again[0] != &table[0] {
		t.Fatal("second call recomputed the table")
	}
	if p.CodeFingerprint() != compile(t, fpSrc).CodeFingerprint() {
		t.Fatal("code fingerprint differs across recompilation")
	}
}

// TestBlockFingerprintsConcurrentFirstUse: goroutines racing on a fresh
// program's first use all see one table and one code fingerprint. Run
// under -race this also proves the memo is safe to share.
func TestBlockFingerprintsConcurrentFirstUse(t *testing.T) {
	p := compile(t, fpSrc)
	const n = 8
	tables := make([][]Fingerprint, n)
	codes := make([]Fingerprint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				codes[i] = p.CodeFingerprint()
				tables[i] = p.BlockFingerprints()
			} else {
				tables[i] = p.BlockFingerprints()
				codes[i] = p.CodeFingerprint()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if &tables[i][0] != &tables[0][0] || codes[i] != codes[0] {
			t.Fatalf("goroutine %d saw a different fingerprint table", i)
		}
	}
	if !equalFingerprints(tables[0], denseFingerprints(p)) {
		t.Fatal("shared table differs from the per-block fingerprints")
	}
}

// TestSimplifyClearsFingerprints: simplifying a fingerprinted program in
// place leaves it with the table and code fingerprint of a freshly
// compiled and simplified copy.
func TestSimplifyClearsFingerprints(t *testing.T) {
	p := compile(t, fpSrc)
	before := p.BlockFingerprints()
	code := p.CodeFingerprint()
	SimplifyProgram(p)
	fresh := compile(t, fpSrc)
	SimplifyProgram(fresh)
	after := p.BlockFingerprints()
	if equalFingerprints(after, before) {
		t.Fatal("simplification left the fingerprint table unchanged; the test needs a source it rewrites")
	}
	if !equalFingerprints(after, fresh.BlockFingerprints()) || !equalFingerprints(after, denseFingerprints(p)) {
		t.Fatal("table after SimplifyProgram differs from a freshly simplified program's")
	}
	if p.CodeFingerprint() == code || p.CodeFingerprint() != fresh.CodeFingerprint() {
		t.Fatal("code fingerprint not recomputed after SimplifyProgram")
	}
}

// TestWithGlobals: a copy over new globals of the same shape is private,
// reuses the program's fingerprint table, and stays correct when one side
// is then rewritten; globals of another shape are rejected.
func TestWithGlobals(t *testing.T) {
	p := compile(t, "int n = 3;\nint data[4] = {1, 2, 3, 4};\n"+fpSrc)
	before := p.BlockFingerprints()
	code := p.CodeFingerprint()
	globals := []*Global{
		{Name: "n", Size: 1, Init: []int32{6}},
		{Name: "data", IsArray: true, Size: 6, Init: []int32{6, 5, 4, 3, 2, 1}},
	}
	q, err := p.WithGlobals(globals)
	if err != nil {
		t.Fatal(err)
	}
	if q.Globals[1] != globals[1] || q.NumInstrs() != p.NumInstrs() || q.Func("main") != q.Funcs[1] {
		t.Fatal("copy does not carry the given globals and the program's code")
	}
	if &q.BlockFingerprints()[0] != &before[0] || q.CodeFingerprint() != code {
		t.Fatal("copy recomputed the fingerprint table")
	}
	for i, fn := range q.Funcs {
		for j, b := range fn.Blocks {
			if b == p.Funcs[i].Blocks[j] || b.Fn != fn {
				t.Fatalf("%s bb%d: block shared with the original or owned by another function", fn.Name, j)
			}
			for _, s := range b.Succs() {
				if s.Fn != fn {
					t.Fatalf("%s bb%d: successor outside the copy", fn.Name, j)
				}
			}
		}
	}
	SimplifyProgram(q)
	if !equalFingerprints(p.BlockFingerprints(), denseFingerprints(p)) || !equalFingerprints(q.BlockFingerprints(), denseFingerprints(q)) {
		t.Fatal("simplifying the copy left a stale fingerprint table")
	}
	if equalFingerprints(p.BlockFingerprints(), q.BlockFingerprints()) {
		t.Fatal("simplifying the copy changed the original")
	}

	for name, bad := range map[string][]*Global{
		"count":      globals[:1],
		"name":       {globals[0], {Name: "date", IsArray: true, Size: 4}},
		"array-ness": {globals[0], {Name: "data", Size: 1}},
	} {
		if _, err := p.WithGlobals(bad); err == nil {
			t.Errorf("globals differing in %s accepted", name)
		}
	}
}
