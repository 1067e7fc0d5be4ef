package experiments

import (
	"strings"
	"sync"
	"testing"

	"ese/internal/calib"
	"ese/internal/engine"
	"ese/internal/pum"
)

var (
	tinyOnce sync.Once
	tinyS    *Setup
	tinyErr  error
)

// tinySetup keeps test runtime low: one evaluation frame on the default
// seeds, calibrated once and shared by every test of the package.
func tinySetup(t *testing.T) *Setup {
	t.Helper()
	tinyOnce.Do(func() { tinyS, tinyErr = NewSetup(1, engine.Options{}) })
	if tinyErr != nil {
		t.Fatalf("NewSetup: %v", tinyErr)
	}
	return tinyS
}

// TestTablesMatchScoreboard pins Tables 2 and 3 to the committed accuracy
// baseline: on the scoreboard's workload, every board and TLM cell equals
// the corresponding point of the mp3-trained MP3 rows.
func TestTablesMatchScoreboard(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size calibration and board runs in -short mode")
	}
	base, err := calib.LoadScoreboard("../../BENCH_accuracy.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]calib.Row)
	for _, r := range base.Rows {
		if r.Train == "mp3" && r.App == "mp3" {
			rows[r.Design] = r
		}
	}
	s, err := NewSetup(base.Frames, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(design string, i int, cc pum.CacheCfg, board, tlm uint64) {
		t.Helper()
		r, ok := rows[design]
		if !ok || i >= len(r.Points) {
			t.Fatalf("baseline has no point %d for mp3/mp3/%s", i, design)
		}
		p := r.Points[i]
		if p.ISize != cc.ISize || p.DSize != cc.DSize || p.Board != board || p.Est != tlm {
			t.Errorf("%s %v: board %d TLM %d, baseline %+v", design, cc, board, tlm, p)
		}
	}
	t2, err := RunTable2(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range t2.Rows {
		check("SW", i, r.Cfg, r.Board, r.TLM)
	}
	t3, err := RunTable3(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range t3.Rows {
		for _, d := range t3.Designs {
			check(d, i, r.Cfg, r.Cells[d].Board, r.Cells[d].TLM)
		}
	}
}

func TestCalibrationFillsTable(t *testing.T) {
	s := tinySetup(t)
	if s.MB.Branch.MissRate <= 0 || s.MB.Branch.MissRate > 1 {
		t.Fatalf("calibrated branch miss rate = %v", s.MB.Branch.MissRate)
	}
	for _, cc := range pum.StandardCacheConfigs {
		if cc.ISize == 0 {
			continue
		}
		st, ok := s.MB.Mem.Table[cc]
		if !ok {
			t.Fatalf("no calibrated stats for %v", cc)
		}
		if st.IHitRate <= 0.5 || st.DHitRate <= 0.3 {
			t.Fatalf("%v: implausible calibrated rates %+v", cc, st)
		}
	}
	// Larger caches must calibrate to equal-or-better hit rates.
	small := s.MB.Mem.Table[pum.CacheCfg{ISize: 2048, DSize: 2048}]
	big := s.MB.Mem.Table[pum.CacheCfg{ISize: 16 * 1024, DSize: 16 * 1024}]
	if big.DHitRate < small.DHitRate {
		t.Fatalf("bigger d-cache calibrated worse: %v < %v", big.DHitRate, small.DHitRate)
	}
}

func TestFunctionalEquivalenceAcrossEngines(t *testing.T) {
	s := tinySetup(t)
	if err := CheckFunctionalEquivalence(s); err != nil {
		t.Fatal(err)
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	s := tinySetup(t)
	tbl, err := RunTable2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// Paper shape 1: cycle counts fall monotonically as caches grow.
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i].Board > tbl.Rows[i-1].Board {
			t.Errorf("board cycles not monotone: %v", tbl.Rows)
		}
	}
	// Paper shape 2: the uncached design is several times slower.
	ratio := float64(tbl.Rows[0].Board) / float64(tbl.Rows[len(tbl.Rows)-1].Board)
	if ratio < 3 {
		t.Errorf("uncached/cached ratio = %.1f, want >= 3", ratio)
	}
	// Paper headline: timed TLM average error under ~15% and better than
	// the ISS baseline.
	if tbl.AvgTLMErr > 15 {
		t.Errorf("TLM avg error %.2f%% too high\n%s", tbl.AvgTLMErr, tbl)
	}
	if tbl.AvgTLMErr >= tbl.AvgISSErr {
		t.Errorf("TLM (%.2f%%) not better than ISS (%.2f%%)\n%s",
			tbl.AvgTLMErr, tbl.AvgISSErr, tbl)
	}
	// Paper shape 3: the ISS badly underestimates the uncached design.
	if tbl.Rows[0].ISSErr > -20 {
		t.Errorf("ISS uncached error %.2f%%, expected strong underestimate", tbl.Rows[0].ISSErr)
	}
	out := tbl.String()
	for _, want := range []string{"Table 2", "0k/0k", "32k/16k", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	s := tinySetup(t)
	tbl, err := RunTable3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 || len(tbl.Designs) != 3 {
		t.Fatalf("shape: %d rows, %d designs", len(tbl.Rows), len(tbl.Designs))
	}
	for _, d := range tbl.Designs {
		if tbl.AvgErr[d] > 20 {
			t.Errorf("%s avg |err| = %.2f%%, want <= 20%%\n%s", d, tbl.AvgErr[d], tbl)
		}
	}
	// Offloading both channels (SW+4) must beat SW+1 on total time for the
	// large-cache configuration (HW parallelism shape of the paper).
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Cells["SW+4"].Board >= last.Cells["SW+1"].Board {
		t.Errorf("SW+4 (%d) not faster than SW+1 (%d) on board",
			last.Cells["SW+4"].Board, last.Cells["SW+1"].Board)
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	s := tinySetup(t)
	tbl, err := RunTable1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.Anno <= 0 || r.TLMTimed <= 0 || r.PCAM <= 0 {
			t.Errorf("%s: missing measurements: %+v", r.Design, r)
		}
		// PCAM must be slower than the timed TLM (the paper's core
		// speed claim, with orders-of-magnitude compressed by our
		// interpreted TLM — see EXPERIMENTS.md).
		if r.PCAM <= r.TLMTimed {
			t.Errorf("%s: PCAM (%v) not slower than timed TLM (%v)",
				r.Design, r.PCAM, r.TLMTimed)
		}
	}
	if !tbl.Rows[0].HasISS {
		t.Error("SW row missing ISS measurement")
	}
	if strings.Count(tbl.String(), "\n") < 5 {
		t.Error("table rendering too short")
	}
}

func TestSensitivityMonotone(t *testing.T) {
	s := tinySetup(t)
	sens, err := RunSensitivity(s, pum.CacheCfg{ISize: 2048, DSize: 2048},
		[]float64{-0.5, -0.2, 0, 0.2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// More modeled misses -> higher estimate, strictly monotone.
	for i := 1; i < len(sens.Points); i++ {
		if sens.Points[i].TLM <= sens.Points[i-1].TLM {
			t.Fatalf("sensitivity not monotone: %+v", sens.Points)
		}
	}
	if !strings.Contains(sens.String(), "Ablation A1") {
		t.Error("rendering broken")
	}
}

func TestGranularitySameCyclesDifferentSpeed(t *testing.T) {
	s := tinySetup(t)
	g, err := RunGranularity(s, "SW+4")
	if err != nil {
		t.Fatal(err)
	}
	if g.PerTxCycles != g.PerBBCycles {
		t.Fatalf("wait granularity changed cycle count: %d vs %d",
			g.PerTxCycles, g.PerBBCycles)
	}
	// End times may differ slightly because interleaving with the bus
	// differs, but computation cycles must match exactly.
}

func TestPUMDetailImprovesAccuracy(t *testing.T) {
	s := tinySetup(t)
	p, err := RunPUMDetail(s, pum.CacheCfg{ISize: 2048, DSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) != 3 {
		t.Fatalf("levels = %d", len(p.Levels))
	}
	// Schedule-only badly underestimates; full detail must be much closer.
	if abs(p.Levels[2].Err) >= abs(p.Levels[0].Err) {
		t.Fatalf("full detail (%.2f%%) not better than schedule-only (%.2f%%)",
			p.Levels[2].Err, p.Levels[0].Err)
	}
}

func TestRTOSStudyShape(t *testing.T) {
	s := tinySetup(t)
	study, err := RunRTOSStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(study.Rows))
	}
	for _, row := range study.Rows {
		// Consolidation onto one CPU is never faster than two CPUs.
		if row.TotalCycles < study.TwoPECycles {
			t.Errorf("%s: single CPU (%d) faster than two PEs (%d)",
				row.Label, row.TotalCycles, study.TwoPECycles)
		}
		// Total is at least the sum of both tasks' CPU time.
		if row.TotalCycles < row.DecCycles+row.EncCycles {
			t.Errorf("%s: total %d below busy sum %d",
				row.Label, row.TotalCycles, row.DecCycles+row.EncCycles)
		}
		if row.Switches == 0 {
			t.Errorf("%s: no dispatches recorded", row.Label)
		}
	}
	// Smaller quanta mean more context switches.
	if study.Rows[1].Switches <= study.Rows[3].Switches {
		t.Errorf("rr 10k switches (%d) not above rr 1M (%d)",
			study.Rows[1].Switches, study.Rows[3].Switches)
	}
	// More switches cost more total time (same switch price).
	if study.Rows[1].TotalCycles <= study.Rows[3].TotalCycles {
		t.Errorf("rr 10k total (%d) not above rr 1M (%d)",
			study.Rows[1].TotalCycles, study.Rows[3].TotalCycles)
	}
	if !strings.Contains(study.String(), "Extension E1") {
		t.Error("rendering broken")
	}
}

func TestOverlapCompensationImprovesSmallBlockAccuracy(t *testing.T) {
	s := tinySetup(t)
	study, err := RunOverlapStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 5 {
		t.Fatalf("rows = %d", len(study.Rows))
	}
	// The compensation must strictly lower every estimate...
	for _, r := range study.Rows {
		if r.Overlap >= r.Faithful {
			t.Errorf("%v: overlap estimate %d not below faithful %d", r.Cfg, r.Overlap, r.Faithful)
		}
	}
	// ...and improve the average error on this workload (the faithful
	// estimator overestimates).
	if study.AvgOverlap >= study.AvgFaith {
		t.Errorf("overlap avg %.2f%% not better than faithful %.2f%%\n%s",
			study.AvgOverlap, study.AvgFaith, study)
	}
}

func TestBlockSizeStudy(t *testing.T) {
	s := tinySetup(t)
	study, err := RunBlockSizeStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 2 {
		t.Fatalf("rows = %d", len(study.Rows))
	}
	raw, simp := study.Rows[0], study.Rows[1]
	if simp.Blocks >= raw.Blocks {
		t.Fatalf("simplify did not reduce blocks: %d vs %d", simp.Blocks, raw.Blocks)
	}
	if simp.AvgOps <= raw.AvgOps {
		t.Fatalf("simplify did not grow blocks: %.1f vs %.1f", simp.AvgOps, raw.AvgOps)
	}
	// Simplified code is faster on the board (fewer jumps)...
	if simp.Board >= raw.Board {
		t.Fatalf("simplified code not faster on board: %d vs %d", simp.Board, raw.Board)
	}
	// ...and the faithful estimator's relative error shrinks with bigger
	// blocks (fewer per-block fill boundaries per op).
	if abs(simp.Err) >= abs(raw.Err) {
		t.Fatalf("bigger blocks did not improve faithful error: %.2f%% vs %.2f%%",
			simp.Err, raw.Err)
	}
}
