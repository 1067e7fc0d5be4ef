package apps

import (
	"testing"

	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/pum"
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
