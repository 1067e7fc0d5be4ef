package calib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/cli"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/engine"
	"ese/internal/metrics"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// small is a reduced matrix that keeps unit tests fast: the SW design of
// each application and JPEG's SW+DCT, two cache configurations, the two
// single-app training sets.
func small() Options {
	return Options{
		Frames:  1,
		Blocks:  4,
		Trains:  []string{"mp3", "jpeg"},
		Designs: []string{"SW", "SW+DCT"},
		Configs: []pum.CacheCfg{{ISize: 0, DSize: 0}, {ISize: 8192, DSize: 4096}},
	}
}

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
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

// loopTraining is a small self-contained training program with branches
// and data traffic.
func loopTraining(t *testing.T) Training {
	t.Helper()
	prog, err := apps.Compile("loop.c", `
int a[128];
void main() {
  int i;
  int r;
  for (r = 0; r < 4; r++) {
    for (i = 0; i < 128; i++) a[i] = a[i] * 3 + i;
  }
  out(a[100]);
}`)
	if err != nil {
		t.Fatal(err)
	}
	return Training{Name: "loop", Prog: prog, Entry: "main"}
}

// Provenance: one entry per cached configuration, each carrying the one
// branch misprediction ratio and step count the training run measured and
// labeled with the training name; the model records the same ratio.
func TestCalibrateProvenance(t *testing.T) {
	cfgs := []pum.CacheCfg{
		{ISize: 2048, DSize: 2048},
		{ISize: 0, DSize: 0},
		{ISize: 16384, DSize: 16384},
		{ISize: 0, DSize: 4096},
	}
	out, reps, err := Calibrate(pum.MicroBlaze(), []Training{loopTraining(t)}, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if out.Branch.MissRate != rep.BranchMiss {
		t.Errorf("model MissRate %v != report %v", out.Branch.MissRate, rep.BranchMiss)
	}
	if len(out.Calib) != 3 {
		t.Fatalf("provenance has %d entries, want 3 (one per cached config)", len(out.Calib))
	}
	for i, cs := range out.Calib {
		if cs.Cfg != rep.Stats[i].Cfg {
			t.Errorf("entry %d: config %v, report measured %v", i, cs.Cfg, rep.Stats[i].Cfg)
		}
		if cs.BranchMiss != rep.BranchMiss {
			t.Errorf("%v: provenance miss %v != run's %v", cs.Cfg, cs.BranchMiss, rep.BranchMiss)
		}
		if cs.Steps != rep.Steps || cs.Steps == 0 {
			t.Errorf("%v: steps %d, want run's nonzero %d", cs.Cfg, cs.Steps, rep.Steps)
		}
		if cs.Train != "loop" {
			t.Errorf("%v: train label %q, want %q", cs.Cfg, cs.Train, "loop")
		}
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	prog, err := apps.CompileMP3("SW", apps.MP3Config{Frames: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := Calibrate(pum.MicroBlaze(), []Training{{Name: "mp3", Prog: prog, Entry: "main"}}, pum.StandardCacheConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Validate(); err != nil {
		t.Fatalf("calibrated model invalid: %v", err)
	}
	for _, cc := range pum.StandardCacheConfigs[1:] {
		if _, err := mb.WithCache(cc); err != nil {
			t.Fatalf("WithCache(%v): %v", cc, err)
		}
	}
}

// Calibrated models round-trip through JSON with their provenance intact.
func TestCalibrateProvenanceJSONRoundTrip(t *testing.T) {
	out, _, err := Calibrate(pum.MicroBlaze(), []Training{loopTraining(t)}, []pum.CacheCfg{{ISize: 4096, DSize: 4096}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := out.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"calib"`) {
		t.Fatal("serialized PUM lacks calib provenance")
	}
	back, err := pum.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Calib) != len(out.Calib) {
		t.Fatalf("round-trip provenance %d entries, want %d", len(back.Calib), len(out.Calib))
	}
	for i := range back.Calib {
		if back.Calib[i] != out.Calib[i] {
			t.Errorf("entry %d: %+v != %+v", i, back.Calib[i], out.Calib[i])
		}
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
// exactly and CI regenerates the JSON on every run. One run is serial
// (GOMAXPROCS 1) and one on four workers, where the MP3 row of a training
// set finishes after the JPEG rows started beside it: rows land in matrix
// order, not in the order they finish. Each run starts on a fresh
// schedule/estimate cache and must leave the same counters in it: the
// recordings compute every schedule before any row runs, so rows of
// designs sharing blocks never both miss one.
func TestScoreboardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two scoreboard runs in -short mode")
	}
	var a, b *Scoreboard
	var aErr, bErr error
	aOpts, bOpts := small(), small()
	aOpts.Engine.Cache, bOpts.Engine.Cache = core.NewCache(), core.NewCache()
	atProcs(1, func() { a, aErr = RunScoreboard(aOpts) })
	atProcs(4, func() { b, bErr = RunScoreboard(bOpts) })
	if aErr != nil || bErr != nil {
		t.Fatalf("GOMAXPROCS 1: %v; GOMAXPROCS 4: %v", aErr, bErr)
	}
	if as, bs := aOpts.Engine.Cache.Stats(), bOpts.Engine.Cache.Stats(); as != bs {
		t.Fatalf("cache counters differ: GOMAXPROCS 1 %+v, GOMAXPROCS 4 %+v", as, bs)
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
		t.Fatalf("scoreboard not deterministic:\n--- GOMAXPROCS 1\n%s\n--- GOMAXPROCS 4\n%s", aj, bj)
	}
	// Row order is the nested matrix order: trains, then apps, then designs.
	wantOrder := []string{
		"mp3/mp3/SW", "mp3/jpeg/SW", "mp3/jpeg/SW+DCT",
		"jpeg/mp3/SW", "jpeg/jpeg/SW", "jpeg/jpeg/SW+DCT",
	}
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
		if q := a.Rows[3].Points[i]; p.Board != q.Board {
			t.Errorf("point %d: board cycles differ across trainings (%d vs %d)", i, p.Board, q.Board)
		}
	}
}

// Each workload is interpreted once per scoreboard, by its recording, and
// every estimate replays it: of the TLM runs the scorer makes, one per
// workload simulates and one per point replays. ScoreRow's points, served
// from recordings, equal calib.Estimate's run point by point without one.
func TestScoreboardReplaysEachWorkload(t *testing.T) {
	opts := small()
	reg := metrics.NewRegistry()
	opts.Engine.Metrics = reg
	sb, err := RunScoreboard(opts)
	if err != nil {
		t.Fatal(err)
	}
	works := len(sb.Rows) / len(opts.Trains)
	snap := reg.Snapshot()
	runs, replays := snap.Histograms["tlm.wall.seconds"].Count, snap.Counters["tlm.replays"]
	if want := uint64(len(sb.Rows) * len(opts.Configs)); replays != want || runs != want+uint64(works) {
		t.Fatalf("%d TLM runs of which %d replayed, want %d replays and %d simulations", runs, replays, want, works)
	}

	ts, err := Trainings("mp3")
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Calibrate(pum.MicroBlaze(), ts, opts.Configs, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	memo := &Memo{}
	for _, w := range []Workload{{"mp3", "SW", opts.Frames, apps.DefaultMP3.Seed}, {"jpeg", "SW+DCT", opts.Blocks, apps.DefaultJPEG.Seed}} {
		reg := metrics.NewRegistry()
		row, err := ScoreRow(ctx, engine.New(engine.Options{Metrics: reg}), memo, model, w, opts.Configs)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot().Counters["tlm.replays"]; got != uint64(len(opts.Configs)) {
			t.Errorf("%s: %d of %d estimates replayed", w, got, len(opts.Configs))
		}
		e, _, err := memo.Entry(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, cc := range opts.Configs {
			d, err := e.Design(model, cc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := Estimate(ctx, engine.New(engine.Options{}), d, cc, row.Points[i].Board)
			if err != nil {
				t.Fatal(err)
			}
			if row.Points[i] != want {
				t.Errorf("%s %v: ScoreRow point %+v, Estimate %+v", w, cc, row.Points[i], want)
			}
		}
	}
}

// pollCounter counts the polls of a context's error. A board pass polls
// its context as it runs (diag.FromContext); a caller waiting for another
// caller's pass only selects on Done.
type pollCounter struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// Concurrent requests for one workload's entry, board references and
// recording fill each once: one caller compiles, one runs the board pass
// and one records, and the others wait for them and share what they
// memoized.
func TestMemoFillsOnceUnderConcurrency(t *testing.T) {
	const callers = 8
	w := Workload{"jpeg", "SW", 1, apps.DefaultJPEG.Seed}
	cfgs := []pum.CacheCfg{{ISize: 0, DSize: 0}, {ISize: 8192, DSize: 4096}}
	memo := &Memo{}
	ctx := context.Background()
	pipe := engine.New(engine.Options{})
	var compiles, records atomic.Int64
	boardCtxs := make([]*pollCounter, callers)
	progs := make([]*cdfg.Program, callers)
	refs := make([][]uint64, callers)
	recs := make([]*tlm.Recording, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		boardCtxs[i] = &pollCounter{Context: ctx}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := memo.Entry(ctx, w)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				compiles.Add(1)
			}
			d, err := e.Design(pum.MicroBlaze(), cfgs[1])
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = d.Program
			if refs[i], err = e.Refs(boardCtxs[i], cfgs); err != nil {
				t.Error(err)
				return
			}
			rec, recorded, err := e.Recording(ctx, func(rec *tlm.Recording) error {
				_, err := pipe.SimulateCtx(ctx, d, timed(rec))
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
			if recorded {
				records.Add(1)
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	passes := 0
	for _, c := range boardCtxs {
		if c.polls.Load() > 0 {
			passes++
		}
	}
	if compiles.Load() != 1 || passes != 1 || records.Load() != 1 {
		t.Fatalf("%d compiles, %d board passes and %d recordings, want one each", compiles.Load(), passes, records.Load())
	}
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] || recs[i] != recs[0] || !slices.Equal(refs[i], refs[0]) {
			t.Fatalf("caller %d got its own program, recording or references", i)
		}
	}
	if !recs[0].Filled() || refs[0][0] == 0 {
		t.Fatalf("shared recording filled %v, references %v", recs[0].Filled(), refs[0])
	}
}

// A fill that fails memoizes nothing: a calibration under an expired
// context fails, and the next request calibrates.
func TestMemoForgetsFailedFills(t *testing.T) {
	memo := &Memo{}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if _, err := memo.Model(expired, true); !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("calibration under an expired context: err = %v, want diag.ErrDeadline", err)
	}
	if m, err := memo.Model(context.Background(), true); err != nil || m == nil || len(m.Calib) == 0 {
		t.Fatalf("calibration after a failed one: model %v, err %v", m, err)
	}
}

// A limit every training run and board pass exceeds fails the scoreboard
// with the error of its first task in matrix order, the MP3 training run,
// whatever the number of workers. Which of four concurrent passes fails
// first in time varies, so the parallel run repeats.
func TestScoreboardLimitErrorSameAtEveryGOMAXPROCS(t *testing.T) {
	opts := small()
	opts.Limit = 1000
	want := `calib: training "mp3": rtl: step limit 1000 exceeded`
	var err error
	atProcs(1, func() { _, err = RunScoreboard(opts) })
	if err == nil || err.Error() != want {
		t.Fatalf("GOMAXPROCS 1: error %v, want %q", err, want)
	}
	atProcs(4, func() {
		for i := 0; i < 10; i++ {
			if _, err = RunScoreboard(opts); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS 4, run %d: error %v, want %q", i, err, want)
			}
		}
	})
}

// Configurations outside the datasheet's nominal table are scored like
// the standard ones: the board references and the calibrated estimates
// both map at every configuration the sweep names.
func TestScoreboardNonStandardConfigs(t *testing.T) {
	cfgs := []pum.CacheCfg{{ISize: 4096, DSize: 4096}, {ISize: 0, DSize: 4096}}
	sb, err := RunScoreboard(Options{
		Frames: 1, Blocks: 4,
		Trains: []string{"jpeg"}, Apps: []string{"jpeg"}, Designs: []string{"SW"},
		Configs: cfgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Rows) != 1 || len(sb.Rows[0].Points) != len(cfgs) {
		t.Fatalf("got %+v, want one row of %d points", sb.Rows, len(cfgs))
	}
	for i, p := range sb.Rows[0].Points {
		if p.ISize != cfgs[i].ISize || p.DSize != cfgs[i].DSize || p.Board == 0 || p.Est == 0 {
			t.Errorf("point %d = %+v, want configuration %v with board and estimated cycles", i, p, cfgs[i])
		}
	}
}

// An expired context fails the standard scoreboard with diag.ErrDeadline
// in a small fraction of the time the scoreboard takes.
func TestScoreboardExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := RunScoreboard(Options{Ctx: ctx})
	if !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("err = %v, want diag.ErrDeadline", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired scoreboard returned after %v", d)
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
