package tlm

import (
	"errors"
	"testing"

	"ese/internal/platform"
	"ese/internal/rtos"
	"ese/internal/sim"
)

// uniformDelays gives every block of every PE the delay v.
func uniformDelays(d *platform.Design, v float64) map[string][]float64 {
	out := make(map[string][]float64, len(d.PEs))
	for _, pe := range d.PEs {
		dm := make([]float64, d.Program.NumBlocks())
		for i := range dm {
			dm[i] = v
		}
		out[pe.Name] = dm
	}
	return out
}

// wantOverflow fails unless err is the typed simulated-time overflow and
// the run returned no result.
func wantOverflow(t *testing.T, label string, res *Result, err error) {
	t.Helper()
	if !errors.Is(err, sim.ErrTimeOverflow) {
		t.Fatalf("%s: err = %v, want sim.ErrTimeOverflow", label, err)
	}
	if res != nil {
		t.Fatalf("%s: overflowing run returned a result (end %d ps)", label, res.EndPs)
	}
}

// TestReplayTimeOverflow builds delays whose largest segment sums to just
// under 2^53 cycles: the recording replays (every sum is an exact
// integer), but at 100 MHz those cycles are far more picoseconds than a
// uint64 holds. The replay fails with sim.ErrTimeOverflow instead of
// wrapping the end time, as simulating the same delays does.
func TestReplayTimeOverflow(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	rec := &Recording{}
	if _, err := Run(d, timedOpts(uniformDelays(d, 1), rec, nil)); err != nil || !rec.Filled() {
		t.Fatalf("recording run: filled=%v err=%v", rec.Filled(), err)
	}
	byPE := func(delays map[string][]float64) map[*platform.PE][]float64 {
		m := make(map[*platform.PE][]float64, len(d.PEs))
		for _, pe := range d.PEs {
			m[pe] = delays[pe.Name]
		}
		return m
	}
	counts, ok := rec.segmentDelays(d, byPE(uniformDelays(d, 1)))
	if !ok {
		t.Fatal("unit delays not replayable")
	}
	most := 0.0
	for _, segs := range counts {
		for _, n := range segs {
			most = max(most, n)
		}
	}
	delays := uniformDelays(d, float64(int64((maxExact-1)/most)))
	if _, ok := rec.segmentDelays(d, byPE(delays)); !ok {
		t.Fatal("delays below 2^53 per segment were not accepted for replay")
	}
	res, err := Run(d, timedOpts(delays, rec, nil))
	wantOverflow(t, "replay", res, err)
	res, err = Run(d, timedOpts(delays, nil, nil))
	wantOverflow(t, "simulation", res, err)
}

// TestSimulatedTimeOverflowEveryWait: the per-block waits and the RTOS
// CPU's Consume fail the same way, as does a pooled delay beyond uint64.
func TestSimulatedTimeOverflowEveryWait(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	res, err := Run(d, Options{Timed: true, WaitMode: WaitPerBlock, Delays: uniformDelays(d, 1e14)})
	wantOverflow(t, "per-block waits", res, err)
	res, err = Run(d, Options{Timed: true, WaitMode: WaitAtTransactions, Delays: uniformDelays(d, 1e300)})
	wantOverflow(t, "pooled delay beyond uint64", res, err)
	for _, mode := range []WaitMode{WaitAtTransactions, WaitPerBlock} {
		rd := rtosDesign(t, rtos.Config{Policy: rtos.PriorityPreemptive})
		res, err := Run(rd, Options{Timed: true, WaitMode: mode, Delays: uniformDelays(rd, 1e15)})
		wantOverflow(t, "RTOS Consume", res, err)
	}
}
