package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// TestPipelineVerifyOption exercises the Options.Verify wiring at every
// pipeline seam: a clean compile passes, a corrupt model fails annotation
// with a verify-stage diagnostic, an unmapped-class warning fails only
// under Werror, and a corrupt design fails SimulateCtx before any
// simulation work.
func TestPipelineVerifyOption(t *testing.T) {
	src, err := apps.MP3Source("SW", apps.TrainMP3)
	if err != nil {
		t.Fatal(err)
	}

	pl := New(Options{Verify: true, Simplify: true})
	prog, err := pl.CompileCtx(context.Background(), "mp3.c", src)
	if err != nil {
		t.Fatalf("verified compile of a clean program failed: %v", err)
	}

	// A statistically corrupt model must be rejected before annotation.
	bad, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	bad.Mem.Current.IHitRate = math.NaN()
	_, err = pl.AnnotateCtx(context.Background(), prog, bad)
	var d diag.Diagnostic
	if !errors.As(err, &d) || d.Stage != diag.StageVerify {
		t.Fatalf("corrupt model: want verify-stage diagnostic, got %v", err)
	}

	// Coverage gaps are warnings: they pass without Werror, fail with it.
	gap := pum.MicroBlaze()
	delete(gap.Ops, cdfg.ClassMul)
	if _, err := pl.AnnotateCtx(context.Background(), prog, gap); err != nil {
		t.Fatalf("coverage warning failed annotation without Werror: %v", err)
	}
	strictPl := New(Options{Verify: true, Werror: true, Simplify: true})
	prog2, err := strictPl.CompileCtx(context.Background(), "mp3.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strictPl.AnnotateCtx(context.Background(), prog2, gap); err == nil {
		t.Fatal("coverage warning did not fail annotation under Werror")
	}
}

// TestPipelineVerifyDesign checks the design-level seam: VerifyDesign on a
// verified pipeline accepts a clean design (including under Werror, which
// requires the PE-scoped coverage lint — a whole-program lint would
// reject the hardware PEs), which then simulates, and rejects a corrupted
// one; without Options.Verify it verifies nothing.
func TestPipelineVerifyDesign(t *testing.T) {
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *platform.Design {
		d, err := apps.MP3Design("SW+2", apps.MP3Config{Frames: 1, Seed: apps.DefaultMP3.Seed},
			mb, pum.CacheCfg{ISize: 8192, DSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	pl := New(Options{Verify: true, Werror: true})
	clean := build()
	if err := pl.VerifyDesign(clean); err != nil {
		t.Fatalf("verification of a clean design failed: %v", err)
	}
	if _, err := pl.SimulateCtx(context.Background(), clean, tlm.Options{
		Timed: true, WaitMode: tlm.WaitAtTransactions,
	}); err != nil {
		t.Fatalf("simulation of a verified design failed: %v", err)
	}

	corrupt := build()
	corrupt.PEs[0].PUM.Branch.Penalty = -3
	err = pl.VerifyDesign(corrupt)
	var d diag.Diagnostic
	if !errors.As(err, &d) || d.Stage != diag.StageVerify {
		t.Fatalf("corrupt design: want verify-stage diagnostic, got %v", err)
	}
	if err := New(Options{}).VerifyDesign(corrupt); err != nil {
		t.Fatalf("a pipeline without Verify verified a design: %v", err)
	}
}
