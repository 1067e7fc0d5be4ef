package tlm

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/rtos"
)

// runWith executes one timed TLM run of d under the given engine and wait
// mode, with profiling on.
func runWith(t *testing.T, d *platform.Design, eng interp.EngineKind, mode WaitMode, limit uint64) (*Result, error) {
	t.Helper()
	return Run(d, Options{
		Timed:     true,
		WaitMode:  mode,
		Delays:    fullDelays(t, d),
		Engine:    eng,
		Profile:   true,
		StepLimit: limit,
	})
}

// sameResult requires the engine-independent observables to be identical:
// out streams, step counts, per-PE cycles, simulated end time, bus words
// and per-block execution counts.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if !maps.EqualFunc(a.OutByPE, b.OutByPE, slices.Equal[[]int32]) {
		t.Fatalf("OutByPE mismatch:\n  tree:     %v\n  compiled: %v", a.OutByPE, b.OutByPE)
	}
	if a.Steps != b.Steps {
		t.Fatalf("Steps mismatch: tree %d, compiled %d", a.Steps, b.Steps)
	}
	if !maps.Equal(a.CyclesByPE, b.CyclesByPE) {
		t.Fatalf("CyclesByPE mismatch:\n  tree:     %v\n  compiled: %v", a.CyclesByPE, b.CyclesByPE)
	}
	if a.EndPs != b.EndPs {
		t.Fatalf("EndPs mismatch: tree %d, compiled %d", a.EndPs, b.EndPs)
	}
	if a.BusWords != b.BusWords {
		t.Fatalf("BusWords mismatch: tree %d, compiled %d", a.BusWords, b.BusWords)
	}
	if len(a.BlockCountsByPE) != len(b.BlockCountsByPE) {
		t.Fatalf("BlockCountsByPE key mismatch: tree %d, compiled %d",
			len(a.BlockCountsByPE), len(b.BlockCountsByPE))
	}
	for key, am := range a.BlockCountsByPE {
		if !maps.Equal(am, b.BlockCountsByPE[key]) {
			t.Fatalf("BlockCountsByPE[%s] mismatch", key)
		}
	}
}

// TestEngineDifferentialTwoPE runs the ping-pong design under both engines
// in both wait modes and requires identical results.
func TestEngineDifferentialTwoPE(t *testing.T) {
	for _, mode := range []WaitMode{WaitAtTransactions, WaitPerBlock} {
		d := twoPEDesign(t, pingPongSrc)
		rt, errT := runWith(t, d, interp.EngineTree, mode, 0)
		rc, errC := runWith(t, d, interp.EngineCompiled, mode, 0)
		if errT != nil || errC != nil {
			t.Fatalf("mode %v: tree err %v, compiled err %v", mode, errT, errC)
		}
		sameResult(t, rt, rc)
		if rt.EndPs == 0 {
			t.Fatal("timed run did not advance simulated time")
		}
	}
}

// TestEngineDifferentialRTOS runs the RTOS single-CPU design under both
// engines in both wait modes (per-block preemption included).
func TestEngineDifferentialRTOS(t *testing.T) {
	for _, mode := range []WaitMode{WaitAtTransactions, WaitPerBlock} {
		d := rtosDesign(t, rtos.Config{ContextSwitchCycles: 40, TimeSliceCycles: 0})
		rt, errT := runWith(t, d, interp.EngineTree, mode, 0)
		rc, errC := runWith(t, d, interp.EngineCompiled, mode, 0)
		if errT != nil || errC != nil {
			t.Fatalf("mode %v: tree err %v, compiled err %v", mode, errT, errC)
		}
		sameResult(t, rt, rc)
		if rt.SwitchesByPE["cpu"] != rc.SwitchesByPE["cpu"] {
			t.Fatalf("RTOS switch counts diverge: tree %d, compiled %d",
				rt.SwitchesByPE["cpu"], rc.SwitchesByPE["cpu"])
		}
	}
}

// TestEngineDifferentialStepLimit requires the limit to trip identically
// through the whole TLM stack.
func TestEngineDifferentialStepLimit(t *testing.T) {
	for _, limit := range []uint64{20, 150} {
		d := twoPEDesign(t, pingPongSrc)
		rt, errT := runWith(t, d, interp.EngineTree, WaitAtTransactions, limit)
		rc, errC := runWith(t, d, interp.EngineCompiled, WaitAtTransactions, limit)
		if (errT == nil) != (errC == nil) || (errT != nil && errT.Error() != errC.Error()) {
			t.Fatalf("limit %d error mismatch:\n  tree:     %v\n  compiled: %v", limit, errT, errC)
		}
		if errT == nil {
			t.Fatalf("limit %d: expected the limit to trip", limit)
		}
		// A tripped step limit is fatal (not a cancellation), so Run
		// returns no Result; both engines must agree on that too.
		if (rt == nil) != (rc == nil) {
			t.Fatalf("limit %d: partial-result mismatch: tree %v, compiled %v", limit, rt != nil, rc != nil)
		}
		if rt != nil {
			sameResult(t, rt, rc)
		}
	}
}

// TestEngineAutoMatchesCompiled checks the default knob resolves to the
// compiled engine on front-end programs.
func TestEngineAutoMatchesCompiled(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	e, err := interp.NewEngine(d.Program, interp.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != interp.EngineCompiled {
		t.Fatalf("EngineAuto resolved to %v on a front-end program", e.Kind())
	}
	ra, errA := runWith(t, d, interp.EngineAuto, WaitAtTransactions, 0)
	rc, errC := runWith(t, d, interp.EngineCompiled, WaitAtTransactions, 0)
	if errA != nil || errC != nil {
		t.Fatalf("auto err %v, compiled err %v", errA, errC)
	}
	sameResult(t, ra, rc)
}

// TestEngineStressParallel runs many concurrent compiled-engine TLM
// simulations sharing one CompiledProgram; under -race this checks the
// compiled form really is immutable across machines.
func TestEngineStressParallel(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	// Prime the shared compiled program once.
	if _, err := interp.CompileCached(d.Program); err != nil {
		t.Fatal(err)
	}
	delays := fullDelays(t, d)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := Run(d, Options{
					Timed:    true,
					WaitMode: WaitAtTransactions,
					Delays:   delays,
					Engine:   interp.EngineCompiled,
					Profile:  true,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
