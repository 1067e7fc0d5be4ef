// The board-level JPEG check lives in an external test package: it
// calibrates through internal/calib, which imports apps.
package apps_test

import (
	"context"
	"testing"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/core"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/sim"
	"ese/internal/tlm"
)

func TestJPEGDCTOffloadSpeedsUpBoard(t *testing.T) {
	cfg := apps.JPEGConfig{Blocks: 8, Seed: 12}
	cc := pum.CacheCfg{ISize: 2048, DSize: 2048}
	// Calibrate the statistical models on a different-seed training image;
	// the nominal (uncalibrated) model misses this loop-heavy workload by
	// >50%, which is precisely why the paper's flow calibrates.
	trainProg, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.JPEGConfig{Blocks: 4, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := calib.Calibrate(pum.MicroBlaze(), []calib.Training{{Name: "jpeg", Prog: trainProg, Entry: "main"}}, pum.StandardCacheConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := apps.JPEGDesign("SW", cfg, mb, cc)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := apps.JPEGDesign("SW+DCT", cfg, mb, cc)
	if err != nil {
		t.Fatal(err)
	}
	bSW, err := rtl.RunBoard(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	bHW, err := rtl.RunBoard(hw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bHW.EndPs >= bSW.EndPs {
		t.Fatalf("DCT offload not faster on board: %d vs %d ps", bHW.EndPs, bSW.EndPs)
	}
	// And the timed TLM tracks the board within a sane band on both.
	for _, pair := range []struct {
		d   *platform.Design
		ref sim.Time
	}{{sw, bSW.EndPs}, {hw, bHW.EndPs}} {
		// The paper's full-detail tables, estimated uncached.
		delays := make(map[string][]float64, len(pair.d.PEs))
		for _, pe := range pair.d.PEs {
			tab, err := core.EstimateBlocksCtx(context.Background(), pair.d.Program, pe.PUM, core.FullDetail, core.EstOptions{})
			if err != nil {
				t.Fatal(err)
			}
			delays[pe.Name] = tab.Totals()
		}
		res, err := tlm.Run(pair.d, tlm.Options{Timed: true, Delays: delays})
		if err != nil {
			t.Fatal(err)
		}
		est, ref := float64(res.EndPs), float64(pair.ref)
		if est < ref*0.7 || est > ref*1.4 {
			t.Fatalf("%s: TLM %v vs board %v out of band", pair.d.Name, est, ref)
		}
	}
}
