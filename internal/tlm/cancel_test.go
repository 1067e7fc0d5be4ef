package tlm

// Cancellation tests: a wedged simulation must terminate with a typed
// error and still surface the partial Result it produced up to that
// point (the failure-containment contract of the hardened pipeline).

import (
	"context"
	"errors"
	"testing"
	"time"

	"ese/internal/diag"
	"ese/internal/platform"
	"ese/internal/pum"
)

// spinDesign is a single-processor design whose program emits one value
// and then computes forever without yielding at a transaction.
func spinDesign(t *testing.T) *platform.Design {
	t.Helper()
	prog := compile(t, `void main() { int i; i = 0; out(7); while (1) { i = i + 1; } }`)
	d := &platform.Design{
		Name:    "spin",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: pum.MicroBlaze()},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestRunDeadlineReturnsPartialResult(t *testing.T) {
	d := spinDesign(t)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := Run(d, Options{
		Timed:    true,
		WaitMode: WaitAtTransactions,
		Delays:   fullDelays(t, d),
		Ctx:      ctx,
	})
	if !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("Run error = %v, want diag.ErrDeadline", err)
	}
	if res == nil {
		t.Fatal("Run returned nil Result on deadline; want partial result")
	}
	if got := res.OutByPE["cpu"]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("partial OutByPE[cpu] = %v, want [7]", got)
	}
	if res.Steps == 0 {
		t.Fatal("partial result reports zero interpreter steps")
	}
}

func TestRunCancelReturnsPartialResult(t *testing.T) {
	d := spinDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	res, err := Run(d, Options{
		Timed:    true,
		WaitMode: WaitAtTransactions,
		Delays:   fullDelays(t, d),
		Ctx:      ctx,
	})
	if !errors.Is(err, diag.ErrCanceled) {
		t.Fatalf("Run error = %v, want diag.ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("Run returned nil Result on cancellation; want partial result")
	}
	if got := res.OutByPE["cpu"]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("partial OutByPE[cpu] = %v, want [7]", got)
	}
}

func TestRunFunctionalHonorsContext(t *testing.T) {
	d := spinDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(d, Options{Ctx: ctx})
	if !errors.Is(err, diag.ErrCanceled) {
		t.Fatalf("Run error = %v, want diag.ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("Run returned nil Result on cancellation; want partial result")
	}
}
