package jobspec

import (
	"context"
	"errors"
	"testing"

	"ese/internal/cli"
	"ese/internal/metrics"
	"ese/internal/sim"
)

// tunedPenalty is the small uncalibrated mp3 SW job with every branch
// mispredicted at the given penalty.
func tunedPenalty(penalty float64) Spec {
	s := memoBase()
	miss := 1.0
	s.Tune = &Tune{BranchMiss: &miss, BranchPenalty: &penalty}
	return s
}

// wantOverflow fails unless err is the typed simulated-time overflow,
// classified as a runtime (simulate-stage) failure.
func wantOverflow(t *testing.T, label string, res *Result, err error) {
	t.Helper()
	if !errors.Is(err, sim.ErrTimeOverflow) {
		t.Fatalf("%s: err = %v, want sim.ErrTimeOverflow", label, err)
	}
	if code := cli.ExitCode(err); code != cli.ExitRuntime {
		t.Fatalf("%s: exit code %d, want %d", label, code, cli.ExitRuntime)
	}
	if res != nil && res.TLM != nil {
		t.Fatalf("%s: a failed job returned a TLM summary (end_ps %d)", label, res.TLM.EndPs)
	}
}

// TestRunnerSimulatedTimeOverflow: a branch penalty whose pooled cycles
// do not fit simulated picoseconds fails a simulating job with the typed
// error instead of returning a wrapped end time.
func TestRunnerSimulatedTimeOverflow(t *testing.T) {
	for _, penalty := range []float64{1e15, 1e300} {
		s := tunedPenalty(penalty)
		res, err := (&Runner{}).Run(context.Background(), &s)
		wantOverflow(t, "simulating job", res, err)
	}
}

// TestRunnerReplayedTimeOverflow: the same failure on a workload whose
// recording is published. The penalty is chosen from two replayed runs so
// the one segment of mp3 SW sums to 8e15 cycles: below 2^53, so the
// recording replays, but beyond what picoseconds of a 100 MHz clock hold.
func TestRunnerReplayedTimeOverflow(t *testing.T) {
	reg := metrics.NewRegistry()
	r := &Runner{Metrics: reg}
	s := memoBase()
	for i := 0; i < 3; i++ {
		if _, err := r.Run(context.Background(), &s); err != nil {
			t.Fatal(err)
		}
	}
	cycles := func(penalty float64) float64 {
		t.Helper()
		s := tunedPenalty(penalty)
		res, err := r.Run(context.Background(), &s)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.TLM.CyclesByPE["mb"])
	}
	c0, c1 := cycles(0), cycles(1000)
	if reg.Snapshot().Counters["jobspec.replay.hits"] < 3 {
		t.Fatal("the tuned jobs did not replay the published recording")
	}
	perPenalty := (c1 - c0) / 1000
	if perPenalty <= 0 {
		t.Fatalf("penalty does not move cycles: %v -> %v", c0, c1)
	}
	over := tunedPenalty(float64(int64(8e15 / perPenalty)))
	res, err := r.Run(context.Background(), &over)
	wantOverflow(t, "replayed job", res, err)
	big := tunedPenalty(1e15)
	res, err = r.Run(context.Background(), &big)
	wantOverflow(t, "replayed job beyond 2^53", res, err)
}
