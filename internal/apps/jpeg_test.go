package apps

import (
	"context"
	"testing"

	"ese/internal/core"
	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/sim"
	"ese/internal/tlm"
)

func TestJPEGCompilesAndRuns(t *testing.T) {
	cfg := JPEGConfig{Blocks: 4, Seed: 3}
	prog, err := Compile("jpeg.c", JPEGSource(cfg))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(prog)
	m.Limit = 50_000_000
	if err := m.Run("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(m.Out) < 4*2 {
		t.Fatalf("RLE stream too short: %d", len(m.Out))
	}
	// Every block's stream ends with the 0,0 marker; count them.
	markers := 0
	for i := 0; i+1 < len(m.Out); i++ {
		if m.Out[i] == 0 && m.Out[i+1] == 0 {
			markers++
		}
	}
	if markers < 4 {
		t.Fatalf("found %d end markers, want >= 4", markers)
	}
	// DC coefficients exist: at least one nonzero value per block stream.
	nonzero := 0
	for _, v := range m.Out {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 4 {
		t.Fatalf("suspiciously empty RLE stream: %v", m.Out)
	}
}

func TestJPEGEnginesAgree(t *testing.T) {
	prog, err := Compile("jpeg.c", JPEGSource(JPEGConfig{Blocks: 2, Seed: 8}))
	if err != nil {
		t.Fatal(err)
	}
	im := interp.New(prog)
	if err := im.Run("main"); err != nil {
		t.Fatal(err)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	mm := iss.NewMachine(isa)
	if err := mm.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := mm.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(im.Out) != len(mm.Out) {
		t.Fatalf("stream lengths differ: %d vs %d", len(im.Out), len(mm.Out))
	}
	for i := range im.Out {
		if im.Out[i] != mm.Out[i] {
			t.Fatalf("streams differ at %d: %d vs %d", i, im.Out[i], mm.Out[i])
		}
	}
}

func TestJPEGSeedChangesStream(t *testing.T) {
	run := func(seed uint32) []int32 {
		prog, err := Compile("jpeg.c", JPEGSource(JPEGConfig{Blocks: 2, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(prog)
		if err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		return append([]int32(nil), m.Out...)
	}
	a, b := run(1), run(2)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

func TestJPEGDCTOffloadFunctionallyIdentical(t *testing.T) {
	cfg := JPEGConfig{Blocks: 4, Seed: 12}
	// Reference: inline encode.
	ref, err := Compile("jpeg.c", JPEGSource(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rm := interp.New(ref)
	if err := rm.Run("main"); err != nil {
		t.Fatal(err)
	}
	// Offload design on the functional TLM.
	d, err := JPEGDesign("SW+DCT", cfg, pum.MicroBlaze(), pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tlm.Run(d, tlm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.OutByPE["mb"]
	if len(got) != len(rm.Out) {
		t.Fatalf("stream lengths: %d vs %d", len(got), len(rm.Out))
	}
	for i := range rm.Out {
		if got[i] != rm.Out[i] {
			t.Fatalf("streams differ at %d", i)
		}
	}
}

func TestJPEGDCTOffloadSpeedsUpBoard(t *testing.T) {
	cfg := JPEGConfig{Blocks: 8, Seed: 12}
	cc := pum.CacheCfg{ISize: 2048, DSize: 2048}
	// Calibrate the statistical models on a different-seed training image;
	// the nominal (uncalibrated) model misses this loop-heavy workload by
	// >50%, which is precisely why the paper's flow calibrates.
	trainProg, err := Compile("jpeg_train.c", JPEGSource(JPEGConfig{Blocks: 4, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := rtl.Calibrate(pum.MicroBlaze(), trainProg, "main", pum.StandardCacheConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := JPEGDesign("SW", cfg, mb, cc)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := JPEGDesign("SW+DCT", cfg, mb, cc)
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
