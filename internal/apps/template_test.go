package apps

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ese/internal/cdfg"
)

// refBitWriter is the bit-at-a-time writer bitWriter.put replaced, kept
// as the reference it must match.
type refBitWriter struct {
	words []int32
	cur   uint32
	nbits int
}

func (w *refBitWriter) put(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | (v>>uint(i))&1
		w.nbits++
		if w.nbits == 32 {
			w.words = append(w.words, int32(w.cur))
			w.cur, w.nbits = 0, 0
		}
	}
}

func TestBitWriterMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		var got bitWriter
		var want refBitWriter
		for i := rng.Intn(300); i > 0; i-- {
			v, n := rng.Uint32(), rng.Intn(33)
			got.put(v, n)
			want.put(v, n)
			if got.cur != want.cur || got.nbits != want.nbits || !slices.Equal(got.words, want.words) {
				t.Fatalf("sequence %d: put(%#x, %d) left words %x cur %#x/%d, want %x cur %#x/%d",
					seq, v, n, got.words, got.cur, got.nbits, want.words, want.cur, want.nbits)
			}
		}
	}
}

// sourceProgram compiles a design's generated source, the path the
// templates replace.
func sourceProgram(t *testing.T, app, design string, frames int, seed uint32) *cdfg.Program {
	t.Helper()
	var src string
	var err error
	if app == "mp3" {
		src, err = MP3Source(design, MP3Config{Frames: frames, Seed: seed})
	} else {
		src = jpegSource(JPEGConfig{Blocks: frames, Seed: seed}, design == "SW+DCT")
	}
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(app+"_"+design+".c", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func boundProgram(t *testing.T, app, design string, frames int, seed uint32) *cdfg.Program {
	t.Helper()
	var p *cdfg.Program
	var err error
	if app == "mp3" {
		p, err = CompileMP3(design, MP3Config{Frames: frames, Seed: seed})
	} else {
		p, err = CompileJPEG(design, JPEGConfig{Blocks: frames, Seed: seed})
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffPrograms returns the first difference between two programs in
// globals (name, array-ness, size, initializer), fingerprints, function
// layout and instructions (branch targets by block ID, callees by name),
// comparing instruction positions only when withPos is set; "" if none.
func diffPrograms(a, b *cdfg.Program, withPos bool) string {
	if len(a.Globals) != len(b.Globals) {
		return fmt.Sprintf("%d globals, want %d", len(a.Globals), len(b.Globals))
	}
	for i, g := range a.Globals {
		h := b.Globals[i]
		if g.Name != h.Name || g.IsArray != h.IsArray || g.Size != h.Size || !slices.Equal(g.Init, h.Init) {
			return fmt.Sprintf("global %d: %s[%d] array %t, want %s[%d] array %t (or initializers differ)",
				i, g.Name, g.Size, g.IsArray, h.Name, h.Size, h.IsArray)
		}
	}
	if !slices.Equal(a.BlockFingerprints(), b.BlockFingerprints()) {
		return "block fingerprints differ"
	}
	if a.CodeFingerprint() != b.CodeFingerprint() {
		return "code fingerprints differ"
	}
	if len(a.Funcs) != len(b.Funcs) {
		return fmt.Sprintf("%d functions, want %d", len(a.Funcs), len(b.Funcs))
	}
	id := func(b *cdfg.Block) int {
		if b == nil {
			return -1
		}
		return b.ID
	}
	for i, f := range a.Funcs {
		g := b.Funcs[i]
		if f.Name != g.Name || f.ReturnsInt != g.ReturnsInt || f.NTemps != g.NTemps ||
			len(f.Params) != len(g.Params) || len(f.Slots) != len(g.Slots) || len(f.Blocks) != len(g.Blocks) {
			return fmt.Sprintf("function %d: %s differs from %s in signature or layout", i, f.Name, g.Name)
		}
		if a.Func(f.Name) != f {
			return fmt.Sprintf("Func(%q) is not the program's function", f.Name)
		}
		for j, s := range f.Slots {
			if s2 := g.Slots[j]; s.Name != s2.Name || s.IsArray != s2.IsArray || s.Size != s2.Size ||
				s.IsParam != s2.IsParam || s.ParamIx != s2.ParamIx || !slices.Equal(s.Init, s2.Init) {
				return fmt.Sprintf("%s slot %d differs", f.Name, j)
			}
		}
		for j, p := range f.Params {
			if p != f.Slots[j] {
				return fmt.Sprintf("%s param %d is not slot %d", f.Name, j, j)
			}
		}
		for j, blk := range f.Blocks {
			blk2 := g.Blocks[j]
			if blk.ID != blk2.ID || blk.Fn != f || len(blk.Instrs) != len(blk2.Instrs) {
				return fmt.Sprintf("%s bb%d differs in ID, owner or length", f.Name, j)
			}
			for k := range blk.Instrs {
				x, y := &blk.Instrs[k], &blk2.Instrs[k]
				where := fmt.Sprintf("%s bb%d instr %d", f.Name, blk.ID, k)
				if x.Op != y.Op || x.Dst != y.Dst || x.A != y.A || x.B != y.B || x.Arr != y.Arr ||
					x.Chan != y.Chan || !slices.Equal(x.Args, y.Args) {
					return where + " differs"
				}
				if id(x.Then) != id(y.Then) || id(x.Else) != id(y.Else) || id(x.Target) != id(y.Target) {
					return where + ": branch targets differ"
				}
				for _, tgt := range []*cdfg.Block{x.Then, x.Else, x.Target} {
					if tgt != nil && tgt.Fn != f {
						return where + ": branch leaves its function"
					}
				}
				if (x.Callee == nil) != (y.Callee == nil) ||
					x.Callee != nil && (x.Callee.Name != y.Callee.Name || a.Func(x.Callee.Name) != x.Callee) {
					return where + ": callees differ"
				}
				if withPos && x.Pos != y.Pos {
					return fmt.Sprintf("%s: position %s, want %s", where, x.Pos, y.Pos)
				}
			}
		}
	}
	return ""
}

// TestBoundProgramsMatchSource: for every design, at the default, the
// training and two other workloads, the bound program is the generated
// source's program in everything but positions, and at the default
// workload in positions too.
func TestBoundProgramsMatchSource(t *testing.T) {
	type workload struct {
		frames int
		seed   uint32
	}
	apps := []struct {
		name    string
		designs []string
		def     workload
		loads   []workload
	}{
		{"mp3", MP3DesignNames, workload{DefaultMP3.Frames, DefaultMP3.Seed},
			[]workload{{TrainMP3.Frames, TrainMP3.Seed}, {3, 7}, {1, 0}}},
		{"jpeg", JPEGDesignNames, workload{DefaultJPEG.Blocks, DefaultJPEG.Seed},
			[]workload{{TrainJPEG.Blocks, TrainJPEG.Seed}, {1, 3}, {40, 0xDEAD}}},
	}
	for _, app := range apps {
		for _, design := range app.designs {
			for i, w := range append([]workload{app.def}, app.loads...) {
				got := boundProgram(t, app.name, design, w.frames, w.seed)
				want := sourceProgram(t, app.name, design, w.frames, w.seed)
				if d := diffPrograms(got, want, i == 0); d != "" {
					t.Errorf("%s %s, %d frames, seed %#x: %s", app.name, design, w.frames, w.seed, d)
				}
			}
		}
	}
}

// TestBoundProgramsArePrivate: editing one bound program in place (the
// block-size study simplifies, the mutation corpus edits IR) leaves every
// later program of the design unchanged.
func TestBoundProgramsArePrivate(t *testing.T) {
	cfg := MP3Config{Frames: 1, Seed: 5}
	p, err := CompileMP3("SW+2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := p.NumBlocks()
	cdfg.SimplifyProgram(p)
	if p.NumBlocks() >= blocks {
		t.Fatalf("simplification merged no blocks (%d -> %d)", blocks, p.NumBlocks())
	}
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; len(in.Args) > 0 {
					in.Args[0] = cdfg.Const(-1)
				}
			}
			b.Instrs = append(b.Instrs, cdfg.Instr{Op: cdfg.OpNop})
		}
	}
	again, err := CompileMP3("SW+2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffPrograms(again, sourceProgram(t, "mp3", "SW+2", cfg.Frames, cfg.Seed), false); d != "" {
		t.Fatalf("a program compiled after an edit: %s", d)
	}
}

// TestTemplateConcurrentFirstUse: concurrent first binds of one fresh
// template share one compile and each get a private, correct program.
func TestTemplateConcurrentFirstUse(t *testing.T) {
	tm := newTemplate("mp3", "SW+4")
	cfg := MP3Config{Frames: 1, Seed: 9}
	const n = 8
	progs := make([]*cdfg.Program, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], errs[i] = tm.bind(int32(2*cfg.Frames), genBitstream(cfg))
		}(i)
	}
	wg.Wait()
	want := sourceProgram(t, "mp3", "SW+4", cfg.Frames, cfg.Seed)
	for i, p := range progs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if d := diffPrograms(p, want, false); d != "" {
			t.Fatalf("bind %d: %s", i, d)
		}
		if &p.BlockFingerprints()[0] != &progs[0].BlockFingerprints()[0] {
			t.Fatalf("bind %d copied another compile's fingerprint table", i)
		}
		for _, q := range progs[:i] {
			if q == p || q.Funcs[0] == p.Funcs[0] {
				t.Fatalf("binds %d and an earlier one share IR", i)
			}
		}
	}
}

// TestCompileMP3AllocsBounded: binding a workload allocates its input data
// and one copy of the code, a few hundred objects, where the C front end
// made tens of thousands.
func TestCompileMP3AllocsBounded(t *testing.T) {
	cfg := MP3Config{Frames: 32, Seed: DefaultMP3.Seed}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := CompileMP3("SW+4", cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("CompileMP3(SW+4, 32 frames) made %.0f allocations, want at most 1000", allocs)
	}
}

func TestCompileRejectsUnknownDesignsAndEmptyImages(t *testing.T) {
	if _, err := CompileMP3("SW+3", DefaultMP3); err == nil {
		t.Error("unknown MP3 design accepted")
	}
	if _, err := CompileJPEG("SW+4", DefaultJPEG); err == nil {
		t.Error("unknown JPEG design accepted")
	}
	if _, err := CompileJPEG("SW", JPEGConfig{Blocks: 0, Seed: 1}); err == nil {
		t.Error("empty JPEG image accepted")
	}
}
