package cdfg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is a canonical content hash of an IR artifact, used as a
// content-addressed cache key by the estimation pipeline. Fingerprints are
// stable across process runs and across recompilations: two blocks lowered
// from identical source text hash identically even though their Block
// pointers differ, which is what lets a retarget sweep reuse schedule
// results computed for an earlier compilation of the same program.
type Fingerprint [sha256.Size]byte

// String returns a short hex form for logs and debugging.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// fpTable is a program's memoized fingerprint set: every block's
// Fingerprint in dense program order, and the CodeFingerprint hashed from
// them.
type fpTable struct {
	blocks []Fingerprint
	code   Fingerprint
}

// table returns the program's fingerprint table, computing it on first
// use. Concurrent first callers may each compute it; the first to store
// it wins, so every caller sees one table.
func (p *Program) table() *fpTable {
	if t := p.fps.Load(); t != nil {
		return t
	}
	t := &fpTable{blocks: make([]Fingerprint, 0, p.NumBlocks())}
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			t.blocks = append(t.blocks, b.Fingerprint())
		}
	}
	t.code = p.codeFingerprint(t.blocks)
	if p.fps.CompareAndSwap(nil, t) {
		return t
	}
	return p.fps.Load()
}

// BlockFingerprints returns every block's Fingerprint in dense program
// order (functions in order, each function's blocks in order), the order
// the estimator and the execution engines walk. The table is computed
// once per program and shared: callers must not modify it, and code that
// edits a program's IR in place after fingerprinting it goes through
// SimplifyProgram, which clears the table.
func (p *Program) BlockFingerprints() []Fingerprint { return p.table().blocks }

// CodeFingerprint returns the structural hash of the program's code: the
// global declarations (name and array-ness only — sizes and initializers
// are workload data, not code), and every function in full (signature,
// storage layout, and each block's Fingerprint). Two programs with equal
// CodeFingerprints execute the same instruction sequences against global
// state whose shape is resolved at run time, which is what lets an
// ahead-of-time generated engine built for one workload configuration
// serve every other configuration of the same source template (the
// bitstream contents and NGRANULES-style knobs differ only in Global
// Size/Init, which the generated code reads from the live Program). It is
// memoized with the block fingerprints it hashes (see BlockFingerprints).
func (p *Program) CodeFingerprint() Fingerprint { return p.table().code }

// codeFingerprint hashes the program's code from its block fingerprints
// in dense program order.
func (p *Program) codeFingerprint(blocks []Fingerprint) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wBool := func(b bool) {
		if b {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}
	wInt(int64(len(p.Globals)))
	for _, g := range p.Globals {
		wStr(g.Name)
		wBool(g.IsArray)
	}
	wInt(int64(len(p.Funcs)))
	for _, fn := range p.Funcs {
		wStr(fn.Name)
		wBool(fn.ReturnsInt)
		wInt(int64(fn.NTemps))
		wInt(int64(len(fn.Params)))
		wInt(int64(len(fn.Slots)))
		for _, s := range fn.Slots {
			wStr(s.Name)
			wBool(s.IsArray)
			wInt(int64(s.Size))
			wBool(s.IsParam)
			wInt(int64(s.ParamIx))
			wInt(int64(len(s.Init)))
			for _, v := range s.Init {
				wInt(int64(v))
			}
		}
		wInt(int64(len(fn.Blocks)))
		for _, b := range fn.Blocks {
			wInt(int64(b.ID))
			h.Write(blocks[0][:])
			blocks = blocks[1:]
		}
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// Hex returns the full hex form, the stable registry key of generated
// engines.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// Fingerprint returns the structural hash of the block: every
// instruction's opcode, operands, control-flow targets (by block ID),
// callee signature (name plus parameter array-ness, which the operand
// counting of Algorithm 2 depends on), and channel id. Blocks with equal
// fingerprints produce identical SchedResults on any given PUM.
func (b *Block) Fingerprint() Fingerprint {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wRef := func(r Ref) {
		wInt(int64(r.Kind))
		wInt(int64(r.Val))
		wInt(int64(r.Idx))
	}
	wBlockID := func(t *Block) {
		if t == nil {
			wInt(-1)
			return
		}
		wInt(int64(t.ID))
	}
	wInt(int64(len(b.Instrs)))
	for i := range b.Instrs {
		in := &b.Instrs[i]
		wInt(int64(in.Op))
		wRef(in.Dst)
		wRef(in.A)
		wRef(in.B)
		wRef(in.Arr)
		wBlockID(in.Then)
		wBlockID(in.Else)
		wBlockID(in.Target)
		if in.Callee != nil {
			wInt(int64(len(in.Callee.Name)))
			h.Write([]byte(in.Callee.Name))
			wInt(int64(len(in.Callee.Params)))
			for _, p := range in.Callee.Params {
				if p.IsArray {
					wInt(1)
				} else {
					wInt(0)
				}
			}
		} else {
			wInt(-1)
		}
		wInt(int64(in.Chan))
		wInt(int64(len(in.Args)))
		for _, a := range in.Args {
			wRef(a)
		}
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
