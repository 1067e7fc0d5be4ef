package verify

import (
	"bytes"
	"context"
	"testing"

	"ese/internal/apps"
	"ese/internal/core"
	"ese/internal/platform"
	"ese/internal/pum"
)

// fullDelays is the per-PE full-detail delay tables a pipeline would hand
// the TLM, estimated uncached.
func fullDelays(t *testing.T, d *platform.Design) map[string][]float64 {
	t.Helper()
	out := make(map[string][]float64, len(d.PEs))
	for _, pe := range d.PEs {
		tab, err := core.EstimateBlocksCtx(context.Background(), d.Program, pe.PUM, core.FullDetail, core.EstOptions{})
		if err != nil {
			t.Fatalf("EstimateBlocksCtx %s: %v", pe.Name, err)
		}
		out[pe.Name] = tab.Totals()
	}
	return out
}

// TestMetamorphicEstimatorInvariants checks the estimator's metamorphic
// invariants (FU-augmentation monotonicity, x3 delay-scaling envelope,
// perfect-cache zero memory delay, Total >= Sched, finiteness) over every
// block of the largest MP3 mapping on three different processor models.
func TestMetamorphicEstimatorInvariants(t *testing.T) {
	prog, err := apps.CompileMP3("SW+4", apps.MP3Config{Frames: 1, Seed: apps.DefaultMP3.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pum.PUM{cachedMicroBlaze(t), pum.DualIssue(), pum.CustomHW("hw", 100e6)} {
		if ds := CheckEstimatorInvariants(prog, p); len(ds) != 0 {
			t.Errorf("%s: %d invariant violation(s):\n%v", p.Name, len(ds), ds)
		}
	}
}

// TestEngineISSDifferentialAllDesigns is the cross-model differential:
// for every example design, the tree interpreter, the compiled engine and
// the ISS board must agree on the Out streams, and the timed TLM totals
// (Steps, per-PE cycles, EndPs, BusWords) must be identical across the
// two TLM engines.
func TestEngineISSDifferentialAllDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every example design on three execution paths")
	}
	designs, err := ExampleDesigns(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			if ds := DiffDesign(d, fullDelays(t, d)); len(ds) != 0 {
				t.Errorf("%d disagreement(s):\n%v", len(ds), ds)
			}
		})
	}
}

// TestSuitePasses runs the whole harness exactly as `esebench -validate`
// and the CI job do.
func TestSuitePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation suite")
	}
	var buf bytes.Buffer
	if err := Suite(&buf, 1); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("all checks passed")) {
		t.Errorf("summary line missing:\n%s", buf.String())
	}
}
