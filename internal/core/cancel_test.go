package core

// Cancellation and graceful-degradation tests for the estimation worker
// pool: canceled contexts must drain every worker and return the typed
// error; unmapped op classes must degrade by default and hard-fail in
// strict mode.

import (
	"context"
	"errors"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/pum"
)

const mulSrc = `
int a;
int b;
void main() {
  int i;
  a = 1;
  b = 3;
  for (i = 0; i < 8; i = i + 1) {
    if (i > 4) {
      a = a * b;
    } else {
      b = b + i;
    }
  }
  out(a);
  out(b);
}`

// pumWithoutMul is MicroBlaze with the multiplier row removed, so any
// program using OpMul exercises the unmapped-op-class path.
func pumWithoutMul(t *testing.T) *pum.PUM {
	t.Helper()
	p := pum.MicroBlaze()
	delete(p.Ops, cdfg.ClassMul)
	return p
}

func TestEstimateBlocksCtxCanceledDrainsWorkers(t *testing.T) {
	prog := compile(t, mulSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var diags diag.List
	out, err := EstimateBlocksCtx(ctx, prog, pum.MicroBlaze(), FullDetail,
		EstOptions{Workers: 8, Diags: &diags})
	if !errors.Is(err, diag.ErrCanceled) {
		t.Fatalf("EstimateBlocksCtx error = %v, want diag.ErrCanceled", err)
	}
	if out != nil {
		t.Fatalf("EstimateBlocksCtx returned %d estimates on cancellation, want a nil table", out.Len())
	}
	if diags.Count(diag.Error) == 0 {
		t.Fatal("cancellation was not recorded on the diagnostic list")
	}
}

func TestEstimateBlocksCtxCanceledSerial(t *testing.T) {
	prog := compile(t, mulSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := EstimateBlocksCtx(ctx, prog, pum.MicroBlaze(), FullDetail, EstOptions{Workers: 1})
	if !errors.Is(err, diag.ErrCanceled) {
		t.Fatalf("serial EstimateBlocksCtx error = %v, want diag.ErrCanceled", err)
	}
	if out != nil {
		t.Fatal("serial EstimateBlocksCtx returned estimates on cancellation")
	}
}

func TestEstimateBlocksDegradesUnmappedByDefault(t *testing.T) {
	prog := compile(t, mulSrc)
	p := pumWithoutMul(t)
	var diags diag.List
	out, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail,
		EstOptions{Workers: 1, Diags: &diags})
	if err != nil {
		t.Fatalf("EstimateBlocksCtx: %v", err)
	}
	degraded, unmapped := 0, 0
	for _, e := range out.Estimates() {
		if e.Degraded() {
			degraded++
			unmapped += e.Unmapped
		}
	}
	if degraded == 0 {
		t.Fatal("no block was flagged Degraded despite the PUM missing ClassMul")
	}
	if unmapped == 0 {
		t.Fatal("degraded blocks report zero unmapped ops")
	}
	if diags.Count(diag.Warning) != degraded {
		t.Fatalf("diagnostics carry %d warnings, want one per degraded block (%d)",
			diags.Count(diag.Warning), degraded)
	}
	if out.DegradedBlocks() != degraded || out.UnmappedOps() != unmapped {
		t.Fatalf("table tallies %d blocks / %d ops, want %d / %d",
			out.DegradedBlocks(), out.UnmappedOps(), degraded, unmapped)
	}
}

func TestEstimateBlocksStrictRejectsUnmapped(t *testing.T) {
	prog := compile(t, mulSrc)
	p := pumWithoutMul(t)
	var diags diag.List
	out, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail,
		EstOptions{Workers: 1, Strict: true, Diags: &diags})
	if err == nil {
		t.Fatal("strict mode accepted a PUM that does not map ClassMul")
	}
	if out != nil {
		t.Fatal("strict mode returned estimates alongside its error")
	}
	var d diag.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("strict error %T is not a diag.Diagnostic", err)
	}
	if d.Stage != diag.StageAnnotate || d.Severity != diag.Error {
		t.Fatalf("strict diagnostic = %v, want annotate-stage error", d)
	}
	if diags.Count(diag.Error) == 0 {
		t.Fatal("strict failure was not recorded on the diagnostic list")
	}
}

func TestEstimateBlocksFallbackAffectsDelay(t *testing.T) {
	prog := compile(t, mulSrc)
	p := pumWithoutMul(t)
	cheap, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail,
		EstOptions{Workers: 1, FallbackCycles: 1})
	if err != nil {
		t.Fatalf("fallback=1: %v", err)
	}
	dear, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail,
		EstOptions{Workers: 1, FallbackCycles: 64})
	if err != nil {
		t.Fatalf("fallback=64: %v", err)
	}
	raised := false
	for i, e := range cheap.Estimates() {
		if e.Degraded() && dear.Estimates()[i].Total > e.Total {
			raised = true
		}
	}
	if !raised {
		t.Fatal("raising FallbackCycles did not raise any degraded block's delay")
	}
}
