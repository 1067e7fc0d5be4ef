package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/core"
	"ese/internal/engine"
	"ese/internal/jobspec"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
)

// accuracyScore runs calib.RunScoreboard back to back on the committed
// 18-row matrix (three training sets × six designs × five cache sizes,
// MP3 at 2 frames, JPEG at 24 blocks). The cycle-accurate reference path
// — board calibration and board runs — dominates; the generated engine and
// the front end are minor. Every scoreboard must reproduce
// BENCH_accuracy.json exactly, so a speed change that moves an estimate
// fails the run. The matrix is fixed: the seed changes nothing here.
type accuracyScore struct{}

func (accuracyScore) clients() int       { return 1 }
func (accuracyScore) pool(sz sizing) int { return 0 }
func (accuracyScore) memWork() int       { return 4 }

type accInstance struct {
	opts   calib.Options
	base   *calib.Scoreboard // the committed baseline (standard sizing only)
	reg    *metrics.Registry
	caches cacheTally
	last   *calib.Scoreboard
}

func (accuracyScore) setup(ctx context.Context, sz sizing, tr *tracer) (instance, error) {
	in := &accInstance{opts: sz.score, reg: metrics.NewRegistry()}
	if sz.pinned {
		var err error
		if in.base, err = calib.LoadScoreboard(filepath.Join(sz.root, "BENCH_accuracy.json")); err != nil {
			return nil, err
		}
	}
	// Warm-up: a one-row scoreboard runs every layer once.
	_, err := calib.RunScoreboard(calib.Options{
		Frames: 1, Blocks: 1, Trains: []string{"mp3"}, Apps: []string{"mp3"},
		Designs: []string{"SW"}, Configs: []pum.CacheCfg{{ISize: 8192, DSize: 4096}},
	})
	return in, err
}

func (in *accInstance) page(ctx context.Context, client, page int, tr *tracer) pageResult {
	r := pageResult{ops: 1}
	op := tr.newOp()
	id := tr.begin("calib.scoreboard", client, op, 0)
	// A fresh cache per scoreboard, as RunScoreboard builds on its own.
	cache := core.NewCache()
	opts := in.opts
	opts.Engine.Cache, opts.Engine.Metrics = cache, in.reg
	opts.Engine.StageHook = tr.stageHook(client, op, id)
	start := time.Now()
	sb, err := calib.RunScoreboard(opts)
	r.lat = []float64{ms(time.Since(start))}
	tr.end(id)
	in.caches.add(cache.Stats())
	if err == nil {
		var data []byte
		if data, err = sb.ToJSON(); err == nil {
			r.digest = digestHex(data)
		}
	}
	if err == nil && in.base != nil {
		if v := sb.Compare(in.base, 0); len(v) > 0 {
			err = fmt.Errorf("%d differences from BENCH_accuracy.json, first: %s", len(v), v[0])
		}
	}
	if err != nil {
		r.failed, r.err, r.digest = 1, fmt.Errorf("accuracy_score: %w", err), ""
		return r
	}
	in.last = sb
	r.work = 1
	merged, cross := mape(sb)
	r.info = map[string]float64{"mape_pct": merged, "cross_mape_pct": cross}
	return r
}

// mape returns the merged-training MAPE and the mean absolute error over
// every cross-validation point of a scoreboard.
func mape(sb *calib.Scoreboard) (merged, cross float64) {
	var sum, n float64
	for _, a := range sb.Aggregates {
		if a.Train == calib.TrainMP3JPEG {
			merged = a.MAPE
		}
		sum += a.CrossMAPE * float64(a.CrossPoints)
		n += float64(a.CrossPoints)
	}
	return merged, ratio(sum, n)
}

func (in *accInstance) counters(context.Context) (counters, error) {
	return snapshotCounters(in.reg.Snapshot(), in.caches.get()), nil
}

func (in *accInstance) layers(ctx context.Context, tr *tracer, w *window) (map[string]float64, error) {
	if in.last == nil {
		return nil, fmt.Errorf("accuracy_score: no scoreboard to replay")
	}
	op := tr.newOp()
	root := tr.begin("replay.scoreboard", 0, op, 0)
	err := in.replay(tr, op, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	for _, app := range in.opts.Apps {
		for _, design := range designsOf(app, in.opts.Designs) {
			s := jobspec.DefaultTLM()
			s.App, s.Design, s.Frames = app, design, in.opts.Frames
			if app == jobspec.AppJPEG {
				s.Frames = in.opts.Blocks
			}
			if err := replayFrontend(tr, replayItem{spec: s, op: op}); err != nil {
				return nil, err
			}
		}
	}

	win := tr.stats(underParent("calib.scoreboard"))
	rep := tr.stats(underParent("replay.scoreboard"))
	est := tr.stats(underParent("calib.estimate"))
	work := float64(w.work)
	total := ms(tr.stats(nil).total["replay.scoreboard"])
	build := ms(rep.total["apps.design"])
	m := map[string]float64{
		"calib.calibrate_ms":             rep.medianMs("calib.calibrate"),
		"jobspec.build_design_ms_per_op": build,
		"core.annotate_ms_per_op":        ratio(ms(win.total["core.annotate"]), work),
		"tlm.simulate_ms_per_op":         ratio(ms(win.total["tlm.simulate"]), work),
		"jobspec.build_design_share":     ratio(build, total),
		"core.annotate_share":            ratio(ms(est.total["core.annotate"]), total),
		"tlm.simulate_share":             ratio(ms(est.total["tlm.simulate"]), total),
		"calib.calibrate_share":          ratio(ms(rep.total["calib.calibrate"]), total),
		"rtl.board_share":                ratio(ms(rep.total["rtl.board"]), total),
	}
	frontendLayers(m, tr.stats(underParent("replay.frontend")))
	return m, nil
}

// replay re-executes the last scoreboard's matrix the way RunScoreboard
// does — calib.Calibrate per training set, then per point the design
// build, the board reference (once per app, design and cache size) and the
// timed estimate — one span per layer call, and checks that the replayed
// board and estimated cycles equal the scoreboard's.
func (in *accInstance) replay(tr *tracer, op int64, root int32) error {
	o := in.opts
	span := func(name string, f func(id int32) error) error {
		id := tr.begin(name, 0, op, root)
		defer tr.end(id)
		return f(id)
	}
	rows := map[string]calib.Row{}
	for _, r := range in.last.Rows {
		rows[r.Train+"/"+r.App+"/"+r.Design] = r
	}
	board := map[string]uint64{}
	cache := core.NewCache()
	for _, label := range o.Trains {
		var model *pum.PUM
		if err := span("calib.calibrate", func(int32) error {
			ts, err := calib.Trainings(label)
			if err == nil {
				model, _, err = calib.Calibrate(pum.MicroBlaze(), ts, o.Configs, o.Limit)
			}
			return err
		}); err != nil {
			return err
		}
		for _, app := range o.Apps {
			for _, design := range designsOf(app, o.Designs) {
				row, ok := rows[label+"/"+app+"/"+design]
				if !ok || len(row.Points) != len(o.Configs) {
					return fmt.Errorf("replay: scoreboard has no row %s/%s/%s", label, app, design)
				}
				for i, cc := range o.Configs {
					var d *platform.Design
					if err := span("apps.design", func(int32) (err error) {
						d, err = evalDesign(app, design, o, model, cc)
						return
					}); err != nil {
						return err
					}
					key := fmt.Sprintf("%s/%s/%s", app, design, cc)
					if _, ok := board[key]; !ok {
						if err := span("rtl.board", func(int32) error {
							br, err := rtl.RunBoard(d, o.Limit)
							if err == nil {
								board[key] = br.EndCycles(d.Bus.ClockHz)
							}
							return err
						}); err != nil {
							return err
						}
					}
					var est uint64
					if err := span("calib.estimate", func(id int32) error {
						p := engine.New(engine.Options{Cache: cache, StageHook: tr.stageHook(0, op, id)})
						res, err := p.RunTimed(d)
						if err == nil {
							est = res.EndCycles(d.Bus.ClockHz)
						}
						return err
					}); err != nil {
						return err
					}
					if pt := row.Points[i]; pt.Board != board[key] || pt.Est != est {
						return fmt.Errorf("replay %s/%s: board %d est %d, scoreboard board %d est %d",
							label, key, board[key], est, pt.Board, pt.Est)
					}
				}
			}
		}
	}
	return nil
}

// designsOf lists an app's designs, kept to the filter when there is one.
func designsOf(app string, filter []string) []string {
	all := apps.MP3DesignNames
	if app == jobspec.AppJPEG {
		all = apps.JPEGDesignNames
	}
	if len(filter) == 0 {
		return all
	}
	var out []string
	for _, d := range all {
		for _, f := range filter {
			if d == f {
				out = append(out, d)
			}
		}
	}
	return out
}

// evalDesign builds one scoreboard point's platform, as RunScoreboard does.
func evalDesign(app, design string, o calib.Options, model *pum.PUM, cc pum.CacheCfg) (*platform.Design, error) {
	if app == jobspec.AppJPEG {
		return apps.JPEGDesign(design, apps.JPEGConfig{Blocks: o.Blocks, Seed: apps.DefaultJPEG.Seed}, model, cc)
	}
	return apps.MP3Design(design, apps.MP3Config{Frames: o.Frames, Seed: apps.DefaultMP3.Seed}, model, cc)
}

func (in *accInstance) trackName(int) string { return "client" }

func (in *accInstance) close() error { return nil }
