package core

// Cancellation and graceful-degradation tests for the estimation worker
// pool: canceled contexts must drain every worker and return the typed
// error; unmapped op classes must degrade by default and hard-fail in
// strict mode.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// waiting is a live context that reports its first Done call: a fill
// waits under its context only once it has found its key busy.
type waiting struct {
	context.Context
	once sync.Once
	ch   chan struct{}
}

func (w *waiting) Done() <-chan struct{} {
	w.once.Do(func() { close(w.ch) })
	return w.Context.Done()
}

// errAfter is a context whose Err turns to context.Canceled after n
// reads: it cancels a serial build between two scheduled blocks.
type errAfter struct {
	context.Context
	n atomic.Int32
}

func (e *errAfter) Err() error {
	if e.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// contend claims k with a build that ends with (first, firstErr) only
// once a second caller of k waits for it, and returns the table the
// second caller got, whether its own build (returning second) made it,
// and the first build's error.
func contend(c *Cache, k tableKey, first *Table, firstErr error, second *Table) (*Table, bool, error) {
	claimed, release := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := c.fillTable(context.Background(), k, func() (*Table, error) {
			close(claimed)
			<-release
			return first, firstErr
		})
		errc <- err
	}()
	<-claimed
	// A claim that is never released fails the waiter at its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := &waiting{Context: ctx, ch: make(chan struct{})}
	var tab *Table
	built := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		tab, _ = c.fillTable(w, k, func() (*Table, error) {
			built = true
			return second, nil
		})
	}()
	<-w.ch
	close(release)
	<-done
	return tab, built, <-errc
}

// TestCancelledBuildReleasesKey: a build that fails or stores nothing
// ends its claim, so the caller waiting for it fills the key itself, and
// cancelled builds leave no key in flight and a bounded cache within its
// bound. CI runs it under -race -count=10.
func TestCancelledBuildReleasesKey(t *testing.T) {
	inFlight := func(c *Cache) {
		t.Helper()
		if len(c.schedFills) != 0 || len(c.tableFills) != 0 {
			t.Fatalf("%d schedule and %d table keys left in flight", len(c.schedFills), len(c.tableFills))
		}
	}

	// A cancelled build stores nothing; its waiter builds and stores.
	c := NewCacheLimit(8)
	k := tableKey{fallback: 1}
	own := blockTable(2, 7)
	tab, built, err := contend(c, k, nil, diag.ErrCanceled, own)
	if !errors.Is(err, diag.ErrCanceled) || tab != own || !built || getTable(c, k) != own {
		t.Fatalf("after a cancelled build: err %v, waiter built %v, got its table %v, stored %v",
			err, built, tab == own, getTable(c, k) == own)
	}
	inFlight(c)

	// A table larger than the bound is not stored, so its waiter builds
	// its own.
	c = NewCacheLimit(4)
	own = blockTable(5, 6)
	if tab, built, err = contend(c, k, blockTable(5, 5), nil, own); err != nil || tab != own || !built || getTable(c, k) != nil {
		t.Fatalf("after an oversized build: err %v, waiter built %v, got its table %v, stored %v",
			err, built, tab == own, getTable(c, k) != nil)
	}
	inFlight(c)

	// Builds cancelled after two scheduled blocks, each of distinct keys
	// (a fallback latency apiece), keep the bound and no claim, and the
	// cache still builds an uncancelled table.
	prog := compile(t, mulSrc)
	p := pum.MicroBlaze()
	const limit = 4
	c = NewCacheLimit(limit)
	for i := 1; i <= 50; i++ {
		ctx := &errAfter{Context: context.Background()}
		ctx.n.Store(3) // the entry check, then one check per block
		if _, err := EstimateBlocksCtx(ctx, prog, p, FullDetail, EstOptions{Workers: 1, Cache: c, FallbackCycles: i}); !errors.Is(err, diag.ErrCanceled) {
			t.Fatalf("build %d: err %v, want diag.ErrCanceled", i, err)
		}
		if sched, est := c.Len(); sched > limit || est != 0 {
			t.Fatalf("build %d: %d schedules and %d block estimates stored, want at most %d and none", i, sched, est, limit)
		}
		inFlight(c)
	}
	if st := c.Stats(); st.SchedMisses != 100 || st.Evictions != 100-limit {
		t.Fatalf("cancelled builds counted %+v, want 100 schedule misses and %d evictions", st, 100-limit)
	}
	got, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail, EstOptions{Workers: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateBlocksCtx(context.Background(), prog, p, FullDetail, EstOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Estimates(), want.Estimates()) {
		t.Fatal("the table built after cancelled builds differs from the uncached one")
	}
	inFlight(c)
}
