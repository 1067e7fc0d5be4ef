package calib

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/apps"
	"ese/internal/cli"
	"ese/internal/pum"
	"ese/internal/rtl"
)

// small is a reduced matrix that keeps unit tests fast: one design per
// application, two cache configurations, the two single-app training sets.
func small() Options {
	return Options{
		Frames:  1,
		Blocks:  4,
		Trains:  []string{"mp3", "jpeg"},
		Designs: []string{"SW"},
		Configs: []pum.CacheCfg{{ISize: 0, DSize: 0}, {ISize: 8192, DSize: 4096}},
	}
}

func TestCalibrateMergesTrainings(t *testing.T) {
	mp3, err := apps.CompileMP3("SW", apps.TrainMP3)
	if err != nil {
		t.Fatal(err)
	}
	jpeg, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.TrainJPEG))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []pum.CacheCfg{{ISize: 4096, DSize: 4096}, {ISize: 16384, DSize: 16384}}
	both := []Training{
		{Name: "mp3", Prog: mp3, Entry: "main"},
		{Name: "jpeg", Prog: jpeg, Entry: "main"},
	}
	merged, reps, err := Calibrate(pum.MicroBlaze(), both, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports, want 2", len(reps))
	}
	// Provenance: one entry per (config, program) pair, labeled by program.
	if len(merged.Calib) != 4 {
		t.Fatalf("provenance has %d entries, want 4", len(merged.Calib))
	}
	labels := map[string]int{}
	for _, cs := range merged.Calib {
		labels[cs.Train]++
	}
	if labels["mp3"] != 2 || labels["jpeg"] != 2 {
		t.Fatalf("provenance labels %v, want 2 each of mp3/jpeg", labels)
	}
	// The merged branch miss rate is the mean of the per-program rates.
	want := (reps[0].BranchMiss + reps[1].BranchMiss) / 2
	if merged.Branch.MissRate != want {
		t.Errorf("merged miss rate %v, want mean %v", merged.Branch.MissRate, want)
	}
	// Merged hit rates sit between the per-program extremes.
	for _, cfg := range cfgs {
		m := merged.Mem.Table[cfg]
		a, b := reps[0].Stats, reps[1].Stats
		var lo, hi float64
		for i := range a {
			if a[i].Cfg == cfg {
				lo, hi = a[i].Mem.IHitRate, b[i].Mem.IHitRate
			}
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if m.IHitRate < lo || m.IHitRate > hi {
			t.Errorf("%v: merged IHitRate %v outside [%v, %v]", cfg, m.IHitRate, lo, hi)
		}
	}

	if _, _, err := Calibrate(pum.MicroBlaze(), nil, cfgs, 0); err == nil {
		t.Fatal("empty training list: want error")
	}
	if _, _, err := Calibrate(pum.MicroBlaze(), both, []pum.CacheCfg{{}}, 0); !errors.Is(err, rtl.ErrUncalibrated) {
		t.Fatalf("all-uncached: want ErrUncalibrated, got %v", err)
	}
}

// Property: every memory snapshot recorded anywhere in the calibration
// matrix — all training programs, all standard configurations, including a
// degenerate program with no data traffic — passes pum.MemStats.Validate,
// and the calibrated models validate as a whole.
func TestCalibrationMatrixSnapshotsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	progs := map[string]string{
		"mp3":  "",
		"jpeg": "",
		"min":  `void main() { out(7); }`,
	}
	for name, src := range progs {
		var tr Training
		switch name {
		case "mp3":
			p, err := apps.CompileMP3("SW", apps.TrainMP3)
			if err != nil {
				t.Fatal(err)
			}
			tr = Training{Name: name, Prog: p, Entry: "main"}
		case "jpeg":
			p, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.TrainJPEG))
			if err != nil {
				t.Fatal(err)
			}
			tr = Training{Name: name, Prog: p, Entry: "main"}
		default:
			p, err := apps.Compile(name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			tr = Training{Name: name, Prog: p, Entry: "main"}
		}
		out, reps, err := Calibrate(pum.MicroBlaze(), []Training{tr}, pum.StandardCacheConfigs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rep := range reps {
			for _, cs := range rep.Stats {
				if err := cs.Mem.Validate(); err != nil {
					t.Errorf("%s %v: snapshot invalid: %v", name, cs.Cfg, err)
				}
			}
		}
		for cfg, st := range out.Mem.Table {
			if err := st.Validate(); err != nil {
				t.Errorf("%s %v: table entry invalid: %v", name, cfg, err)
			}
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: model invalid: %v", name, err)
		}
	}
}

// Golden determinism: the scoreboard — row ordering included — must be
// byte-identical across runs, because the Compare gate diffs cycles
// exactly and CI regenerates the JSON on every run.
func TestScoreboardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two scoreboard runs in -short mode")
	}
	a, err := RunScoreboard(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScoreboard(small())
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("scoreboard not deterministic:\n--- run 1\n%s\n--- run 2\n%s", aj, bj)
	}
	// Row order is the nested matrix order: trains, then apps, then designs.
	wantOrder := []string{"mp3/mp3/SW", "mp3/jpeg/SW", "jpeg/mp3/SW", "jpeg/jpeg/SW"}
	if len(a.Rows) != len(wantOrder) {
		t.Fatalf("got %d rows, want %d", len(a.Rows), len(wantOrder))
	}
	for i, want := range wantOrder {
		if got := rowKey(a.Rows[i]); got != want {
			t.Errorf("row %d = %s, want %s", i, got, want)
		}
	}
	// Cross-validation flags follow the training set.
	for _, r := range a.Rows {
		if want := r.Train != r.App; r.Cross != want {
			t.Errorf("%s: cross = %v, want %v", rowKey(r), r.Cross, want)
		}
	}
	// Board references are training-independent: the same (app, design,
	// config) point reports identical board cycles under both trainings.
	for i, p := range a.Rows[0].Points { // mp3/mp3/SW vs jpeg/mp3/SW
		if q := a.Rows[2].Points[i]; p.Board != q.Board {
			t.Errorf("point %d: board cycles differ across trainings (%d vs %d)", i, p.Board, q.Board)
		}
	}
}

func writeScoreboard(t *testing.T, s *Scoreboard) string {
	t.Helper()
	data, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_accuracy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The scoreboard's own baseline checks: its row set and its row check
// (points present, statistics in range), and the committed baseline's
// workload. Every rejection is an input error (exit 2); the shared cases
// (a missing file, malformed JSON, no rows, a duplicate row) are
// cli.ReadBaseline's.
func TestLoadScoreboardRejectsBadBaselines(t *testing.T) {
	pt := []Point{{Board: 1, Est: 1}}
	for _, tc := range []struct {
		name, wantErr string
		row           Row
	}{
		{"foreign row", `unknown row "spec/mp3/SW"`, Row{Train: "spec", App: "mp3", Design: "SW", Points: pt}},
		{"no points", "no points", Row{Train: "mp3", App: "mp3", Design: "SW"}},
		{"negative MAPE", "out-of-range statistics", Row{Train: "mp3", App: "mp3", Design: "SW", Points: pt, MAPE: -1}},
		{"Pearson above 1", "out-of-range statistics", Row{Train: "mp3", App: "jpeg", Design: "SW", Points: pt, Pearson: 1.5}},
	} {
		_, err := LoadScoreboard(writeScoreboard(t, &Scoreboard{Frames: 1, Blocks: 4, Rows: []Row{tc.row}}))
		if code := cli.ExitCode(err); code != cli.ExitUsage || !strings.Contains(fmt.Sprint(err), tc.wantErr) {
			t.Errorf("%s: exit code %d (%v), want %d mentioning %q", tc.name, code, err, cli.ExitUsage, tc.wantErr)
		}
	}

	// The committed baseline is usable, and a run of another MP3 or JPEG
	// size is not its workload.
	base, err := LoadScoreboard("../../BENCH_accuracy.json")
	if err != nil {
		t.Fatalf("committed baseline rejected: %v", err)
	}
	if err := cli.SameWorkload("BENCH_accuracy.json", base, (&Scoreboard{Frames: base.Frames, Blocks: base.Blocks}).Workload()); err != nil {
		t.Fatalf("same workload rejected: %v", err)
	}
	for _, run := range []*Scoreboard{{Frames: base.Frames - 1, Blocks: base.Blocks}, {Frames: base.Frames, Blocks: base.Blocks / 2}} {
		err := cli.SameWorkload("BENCH_accuracy.json", base, run.Workload())
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Errorf("run on %s: exit code %d (%v), want %d", run.Workload(), code, err, cli.ExitUsage)
		}
	}
}

func TestCompareGates(t *testing.T) {
	base := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW",
		Points: []Point{{ISize: 0, DSize: 0, Board: 1000, Est: 1050, ErrPct: 5}},
		MAPE:   5, Pearson: 1,
	}}}

	same := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW",
		Points: []Point{{ISize: 0, DSize: 0, Board: 1000, Est: 1050, ErrPct: 5}},
		MAPE:   5, Pearson: 1,
	}}}
	if v := same.Compare(base, 1); len(v) != 0 {
		t.Errorf("identical scoreboard: unexpected violations %v", v)
	}

	drift := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW",
		Points: []Point{{ISize: 0, DSize: 0, Board: 1000, Est: 1050, ErrPct: 5}},
		MAPE:   7.5, Pearson: 1,
	}}}
	if v := drift.Compare(base, 1); len(v) == 0 {
		t.Error("MAPE drift past tolerance: want violation")
	}
	if v := drift.Compare(base, 5); len(v) != 0 {
		t.Errorf("MAPE drift within tolerance: unexpected violations %v", v)
	}

	cycles := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW",
		Points: []Point{{ISize: 0, DSize: 0, Board: 1001, Est: 1050, ErrPct: 4.9}},
		MAPE:   4.9, Pearson: 1,
	}}}
	if v := cycles.Compare(base, 1); len(v) == 0 {
		t.Error("cycle change: want violation")
	}
	// Compare always checks cycles: a baseline of another workload is
	// rejected before it reaches Compare (cli.SameWorkload).
	cycles.Frames = 4
	if v := cycles.Compare(base, 1); len(v) == 0 {
		t.Error("cycle change with other frames: want violation")
	}
	fewer := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW", MAPE: 5, Pearson: 1,
	}}}
	if v := fewer.Compare(base, 1); len(v) != 1 || !strings.Contains(v[0], "0 points, baseline 1") {
		t.Errorf("point count change: violations %v", v)
	}

	missing := &Scoreboard{Frames: 2, Blocks: 24}
	if v := missing.Compare(base, 1); len(v) == 0 {
		t.Error("missing row: want violation")
	}

	worse := &Scoreboard{Frames: 2, Blocks: 24, Rows: []Row{{
		Train: "mp3", App: "mp3", Design: "SW",
		Points: []Point{{ISize: 0, DSize: 0, Board: 1000, Est: 1050, ErrPct: 5}},
		MAPE:   5, Pearson: 0.9,
	}}}
	if v := worse.Compare(base, 1); len(v) == 0 {
		t.Error("Pearson drop past tolerance: want violation")
	}
}
