package calib

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ese/internal/apps"
	"ese/internal/cli"
	"ese/internal/engine"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// Point is one (cache configuration) measurement of a row: end cycles at
// the bus clock on the cycle-accurate board versus the timed TLM estimate
// under the calibrated statistical model.
type Point struct {
	ISize  int     `json:"isize"`
	DSize  int     `json:"dsize"`
	Board  uint64  `json:"board_cycles"`
	Est    uint64  `json:"est_cycles"`
	ErrPct float64 `json:"err_pct"` // signed percent error of Est vs Board
}

// Row is one (training, application, design) accuracy result across the
// cache sweep. Cross marks cross-validation rows: the scored application
// was not part of the training set, so the row measures the paper's
// retargetability claim rather than fit.
type Row struct {
	Train   string  `json:"train"`
	App     string  `json:"app"`
	Design  string  `json:"design"`
	Cross   bool    `json:"cross,omitempty"`
	Points  []Point `json:"points"`
	MAPE    float64 `json:"mape"`    // mean |err| percent over Points
	Pearson float64 `json:"pearson"` // r of (board, est) over Points
}

// Aggregate is one training set's accuracy over every point it was scored
// on, split into in-training and cross-validation populations.
type Aggregate struct {
	Train        string  `json:"train"`
	Points       int     `json:"points"`
	MAPE         float64 `json:"mape"`
	Pearson      float64 `json:"pearson"`
	CrossPoints  int     `json:"cross_points,omitempty"`
	CrossMAPE    float64 `json:"cross_mape,omitempty"`
	CrossPearson float64 `json:"cross_pearson,omitempty"`
}

// Scoreboard is the machine-readable accuracy trajectory of the estimator:
// estimated-vs-board end cycles across the training × application × design
// × cache-configuration matrix. The committed baseline (BENCH_accuracy.json)
// is compared against a fresh run by Compare. Everything in it is
// deterministic — cycles are simulated, not measured — so the comparison
// is exact on cycles and tolerance-gated on the derived MAPE, catching both
// nondeterminism and genuine accuracy drift.
type Scoreboard struct {
	Frames     int         `json:"frames"` // MP3 evaluation workload size
	Blocks     int         `json:"blocks"` // JPEG evaluation workload size
	Rows       []Row       `json:"rows"`
	Aggregates []Aggregate `json:"aggregates"`
}

// TrainMP3JPEG is the combined training-set label: both applications'
// training programs merged by Calibrate.
const TrainMP3JPEG = "mp3+jpeg"

// StandardTrains is the default training-set list of the scoreboard: each
// application alone (yielding cross-validation rows on the other) plus the
// merged set.
var StandardTrains = []string{"mp3", "jpeg", TrainMP3JPEG}

// Options parameterizes RunScoreboard. Zero values select the standard
// matrix: default evaluation workloads, StandardTrains, both applications,
// every design, the standard cache sweep.
type Options struct {
	Frames  int            // MP3 eval frames (default apps.DefaultMP3.Frames)
	Blocks  int            // JPEG eval blocks (default apps.DefaultJPEG.Blocks)
	Trains  []string       // training sets: "mp3", "jpeg", "mp3+jpeg"
	Apps    []string       // scored applications: "mp3", "jpeg"
	Designs []string       // design-name filter (e.g. "SW", "SW+DCT"); nil = all
	Configs []pum.CacheCfg // nil = pum.StandardCacheConfigs
	Engine  engine.Options
	Limit   uint64
	// Ctx, when non-nil, bounds the whole scoreboard: every training
	// measurement, board run and estimate. Expiry fails it with
	// diag.ErrCanceled or diag.ErrDeadline.
	Ctx context.Context
}

// Trainings resolves a training-set label — one application name or
// several joined with "+" — to compiled training programs.
func Trainings(label string) ([]Training, error) {
	one := func(name string) (Training, error) {
		switch name {
		case "mp3":
			prog, err := apps.CompileMP3("SW", apps.TrainMP3)
			if err != nil {
				return Training{}, err
			}
			return Training{Name: "mp3", Prog: prog, Entry: "main"}, nil
		case "jpeg":
			prog, err := apps.Compile("jpeg_train.c", apps.JPEGSource(apps.TrainJPEG))
			if err != nil {
				return Training{}, err
			}
			return Training{Name: "jpeg", Prog: prog, Entry: "main"}, nil
		default:
			return Training{}, cli.Input(fmt.Errorf("calib: unknown training set %q (want mp3, jpeg or %s)", name, TrainMP3JPEG))
		}
	}
	var out []Training
	for _, name := range strings.Split(label, "+") {
		tr, err := one(name)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// trainCovers reports whether the training set includes the application —
// rows where it does not are cross-validation rows.
func trainCovers(label, app string) bool {
	for _, name := range strings.Split(label, "+") {
		if name == app {
			return true
		}
	}
	return false
}

// ScoreRow scores a calibrated model's timed-TLM estimate of the workload
// against the board across cfgs: it takes the workload's board references
// and recording from memo, recording it on the workload's first row, maps
// the workload under model at every configuration and runs each estimate
// through pipe as a replay of that recording, all under ctx. Each point
// equals Estimate's, which simulates. Train and Cross are left to the
// caller.
func ScoreRow(ctx context.Context, pipe *engine.Pipeline, memo *Memo, model *pum.PUM, w Workload, cfgs []pum.CacheCfg) (Row, error) {
	e, _, err := memo.Entry(ctx, w)
	if err != nil {
		return Row{}, err
	}
	refs, err := e.Refs(ctx, cfgs)
	if err != nil {
		return Row{}, err
	}
	ds := make([]*platform.Design, len(cfgs))
	for i, cc := range cfgs {
		if ds[i], err = e.Design(model, cc); err != nil {
			return Row{}, err
		}
	}
	rec, err := record(ctx, pipe, e, ds[0])
	if err != nil {
		return Row{}, err
	}
	row := Row{App: w.App, Design: w.Design}
	for i, cc := range cfgs {
		p, _, err := estimate(ctx, pipe, ds[i], cc, refs[i], rec)
		if err != nil {
			return Row{}, fmt.Errorf("calib: estimate %s/%s: %w", w, cc, err)
		}
		row.Points = append(row.Points, p)
	}
	row.MAPE, row.Pearson = score(row.Points)
	return row, nil
}

// record returns the entry's recording, made on the workload's first
// request by one timed TLM run of d, a design of the workload, through
// pipe. A run that does not record (see tlm.Options.Recording) leaves the
// workload without one, and its estimates simulate.
func record(ctx context.Context, pipe *engine.Pipeline, e *Entry, d *platform.Design) (*tlm.Recording, error) {
	rec, _, err := e.Recording(ctx, func(rec *tlm.Recording) error {
		_, err := pipe.SimulateCtx(ctx, d, timed(rec))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("calib: record %s: %w", e.w, err)
	}
	return rec, nil
}

// Estimate is ScoreRow's per-design step: it runs pipe's timed TLM of d, a
// workload mapped at cache configuration cc, and scores its end cycles at
// the bus clock against board, the design's end cycles on the board. It
// also returns the time the run spent annotating d.
func Estimate(ctx context.Context, pipe *engine.Pipeline, d *platform.Design, cc pum.CacheCfg, board uint64) (Point, time.Duration, error) {
	return estimate(ctx, pipe, d, cc, board, nil)
}

// estimate is Estimate replaying rec, a filled recording of d's workload
// (nil: simulate).
func estimate(ctx context.Context, pipe *engine.Pipeline, d *platform.Design, cc pum.CacheCfg, board uint64, rec *tlm.Recording) (Point, time.Duration, error) {
	res, err := pipe.SimulateCtx(ctx, d, timed(rec))
	if err != nil {
		return Point{}, 0, err
	}
	est := res.EndCycles(d.Bus.ClockHz)
	return Point{
		ISize: cc.ISize, DSize: cc.DSize,
		Board: board, Est: est,
		ErrPct: pct(float64(est), float64(board)),
	}, res.AnnoTime, nil
}

// timed is the scorer's TLM configuration, the one the paper evaluates
// (waits at transaction boundaries), recording into or replaying rec.
func timed(rec *tlm.Recording) tlm.Options {
	return tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Recording: rec}
}

// RunScoreboard calibrates one model per training set and scores the
// estimated TLM against the cycle-accurate board over the matrix, in two
// phases on a pool of runtime.GOMAXPROCS(0) workers (forEach), as dse.Run
// and the annotation pool size theirs.
//
// Phase one runs the matrix's independent functional passes into one
// Memo: each distinct training program is measured once, for every
// training set that includes it, and each (app, design) workload is
// compiled and run on the board at every configuration in one pass
// (Entry.Refs). Board references depend only on the datasheet constants,
// never on the calibrated statistics, so they exist before any model.
// Each training set's model is then merged from its reports.
//
// Phase two scores every row with ScoreRow against the memo, each into
// its slot in matrix order (training sets, then applications, then
// designs), so the scoreboard does not depend on the order rows finish
// in. A workload's first row records it (Entry.Recording), and every
// estimate replays that recording instead of interpreting the program
// again. The pipeline's cache fills each schedule and table once however
// rows interleave, so its counters, like the scoreboard, are the same at
// every GOMAXPROCS. A failing phase reports its earliest failing task in
// that fixed order, so the result, scoreboard or error, is the same at
// every GOMAXPROCS.
func RunScoreboard(opts Options) (*Scoreboard, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Frames <= 0 {
		opts.Frames = apps.DefaultMP3.Frames
	}
	if opts.Blocks <= 0 {
		opts.Blocks = apps.DefaultJPEG.Blocks
	}
	trains := opts.Trains
	if len(trains) == 0 {
		trains = StandardTrains
	}
	appList := opts.Apps
	if len(appList) == 0 {
		appList = []string{"mp3", "jpeg"}
	}
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = pum.StandardCacheConfigs
	}

	// The matrix: distinct training programs in order of first use, and
	// the scored (app, design) workloads.
	var names []string
	for _, label := range trains {
		for _, name := range strings.Split(label, "+") {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	var works []Workload
	for _, app := range appList {
		designs := apps.DesignNames(app)
		if designs == nil {
			return nil, cli.Input(fmt.Errorf("calib: unknown application %q", app))
		}
		w := Workload{App: app, Size: opts.Frames, Seed: apps.DefaultMP3.Seed}
		if app == "jpeg" {
			w.Size, w.Seed = opts.Blocks, apps.DefaultJPEG.Seed
		}
		for _, design := range designs {
			if len(opts.Designs) == 0 || slices.Contains(opts.Designs, design) {
				w.Design = design
				works = append(works, w)
			}
		}
	}

	base := pum.MicroBlaze()
	memo := &Memo{limit: opts.Limit}
	reps := make([]*rtl.CalibReport, len(names))
	if err := forEach(len(names)+len(works), func(i int) error {
		if i < len(names) {
			ts, err := Trainings(names[i])
			if err != nil {
				return err
			}
			reps[i], err = measure(ctx, base, ts[0], cfgs, opts.Limit)
			return err
		}
		e, _, err := memo.Entry(ctx, works[i-len(names)])
		if err == nil {
			_, err = e.Refs(ctx, cfgs)
		}
		return err
	}); err != nil {
		return nil, err
	}
	models := make([]*pum.PUM, len(trains))
	for i, label := range trains {
		labelNames := strings.Split(label, "+")
		labelReps := make([]*rtl.CalibReport, len(labelNames))
		for j, name := range labelNames {
			labelReps[j] = reps[slices.Index(names, name)]
		}
		var err error
		if models[i], err = merge(base, labelNames, labelReps); err != nil {
			return nil, err
		}
	}

	pipe := engine.New(opts.Engine)
	sb := &Scoreboard{Frames: opts.Frames, Blocks: opts.Blocks, Rows: make([]Row, len(trains)*len(works))}
	if err := forEach(len(sb.Rows), func(i int) error {
		label, w := trains[i/len(works)], works[i%len(works)]
		row, err := ScoreRow(ctx, pipe, memo, models[i/len(works)], w, cfgs)
		if err != nil {
			return fmt.Errorf("%w (train %s)", err, label)
		}
		row.Train, row.Cross = label, !trainCovers(label, w.App)
		sb.Rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	for _, label := range trains {
		var in, cross []Point
		for _, r := range sb.Rows {
			if r.Train != label {
				continue
			}
			if r.Cross {
				cross = append(cross, r.Points...)
			} else {
				in = append(in, r.Points...)
			}
		}
		agg := Aggregate{Train: label, Points: len(in)}
		agg.MAPE, agg.Pearson = score(in)
		if len(cross) > 0 {
			agg.CrossPoints = len(cross)
			agg.CrossMAPE, agg.CrossPearson = score(cross)
		}
		sb.Aggregates = append(sb.Aggregates, agg)
	}
	return sb, nil
}

// boardModel returns a copy of base whose memory table has an entry for
// every configuration of cfgs, so the workloads map at each of them
// (pum.PUM.WithCache) before any calibrated model exists. The entries
// base lacks are uncached placeholders: the board times its caches from
// the datasheet constants and never reads the statistics.
func boardModel(base *pum.PUM, cfgs []pum.CacheCfg) *pum.PUM {
	m := base.Clone()
	for _, cc := range cfgs {
		if _, ok := m.Mem.Table[cc]; !ok {
			m.Mem.Table[cc] = pum.MemStats{IMissPenalty: m.Mem.ExtLatency, DMissPenalty: m.Mem.ExtLatency}
		}
	}
	return m
}

// forEach runs task(0), …, task(n-1) on a pool of runtime.GOMAXPROCS(0)
// workers (n when fewer), handing the indices out in order, and returns
// once every task it started has returned. Once a task fails it starts no
// further index; tasks already running finish, and the error returned is
// that of the lowest failing index. Every lower index was handed out
// first, so it ran: the error is the one a serial run returns, at any
// number of workers.
func forEach(n int, task func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = task(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func pct(est, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return 100 * (est - ref) / ref
}

// score computes MAPE and the Pearson correlation of (board, est) pairs.
// Degenerate variance (a single point, or a constant sweep) yields r=1
// when both sides are constant together and r=0 otherwise.
func score(pts []Point) (mape, r float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	n := float64(len(pts))
	var sx, sy float64
	for _, p := range pts {
		mape += math.Abs(p.ErrPct)
		sx += float64(p.Board)
		sy += float64(p.Est)
	}
	mape /= n
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for _, p := range pts {
		dx, dy := float64(p.Board)-mx, float64(p.Est)-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		if vx == 0 && vy == 0 {
			return mape, 1
		}
		return mape, 0
	}
	return mape, cov / math.Sqrt(vx*vy)
}

// ToJSON serializes the scoreboard the way the committed baseline is
// written (cli.MarshalRecord).
func (s *Scoreboard) ToJSON() ([]byte, error) { return cli.MarshalRecord(s) }

// knownRows is the row-key whitelist LoadScoreboard accepts.
func knownRows() map[string]bool {
	known := make(map[string]bool)
	for _, train := range StandardTrains {
		for _, d := range apps.MP3DesignNames {
			known[train+"/mp3/"+d] = true
		}
		for _, d := range apps.JPEGDesignNames {
			known[train+"/jpeg/"+d] = true
		}
	}
	return known
}

func rowKey(r Row) string { return r.Train + "/" + r.App + "/" + r.Design }

// LoadScoreboard reads a committed accuracy baseline (BENCH_accuracy.json)
// through cli.ReadBaseline; only the standard matrix's rows are known.
func LoadScoreboard(path string) (*Scoreboard, error) {
	var s Scoreboard
	if err := cli.ReadBaseline(path, &s, knownRows()); err != nil {
		return nil, err
	}
	return &s, nil
}

// Workload names the scored input: the MP3 frames and the JPEG blocks.
func (s *Scoreboard) Workload() string {
	return fmt.Sprintf("MP3 %d frames, JPEG %d blocks", s.Frames, s.Blocks)
}

// RowKeys lists the rows' training/app/design keys. A row without points
// or with out-of-range statistics is unusable.
func (s *Scoreboard) RowKeys() ([]string, error) {
	keys := make([]string, len(s.Rows))
	for i, r := range s.Rows {
		keys[i] = rowKey(r)
		if len(r.Points) == 0 {
			return nil, fmt.Errorf("row %q has no points", keys[i])
		}
		if math.IsNaN(r.MAPE) || r.MAPE < 0 || math.IsNaN(r.Pearson) || r.Pearson < -1 || r.Pearson > 1 {
			return nil, fmt.Errorf("row %q has out-of-range statistics", keys[i])
		}
	}
	return keys, nil
}

// Compare checks a fresh scoreboard against a committed baseline of the
// same workload and returns human-readable violations (empty means the
// run is acceptable). Every point's board and estimated cycles must match
// exactly — the simulation is deterministic, so any difference is a
// timing-model change that warrants a deliberate baseline regeneration.
// MAPE may not worsen by more than tolPts percentage points per row, and
// Pearson r may not fall more than tolPts/100 below baseline.
func (s *Scoreboard) Compare(baseline *Scoreboard, tolPts float64) []string {
	var violations []string
	byKey := make(map[string]Row, len(s.Rows))
	for _, r := range s.Rows {
		byKey[rowKey(r)] = r
	}
	for _, base := range baseline.Rows {
		key := rowKey(base)
		cur, ok := byKey[key]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current scoreboard", key))
			continue
		}
		if len(cur.Points) != len(base.Points) {
			violations = append(violations, fmt.Sprintf(
				"%s: %d points, baseline %d (cache sweep changed)", key, len(cur.Points), len(base.Points)))
		} else {
			for i, bp := range base.Points {
				cp := cur.Points[i]
				if cp.ISize != bp.ISize || cp.DSize != bp.DSize || cp.Board != bp.Board || cp.Est != bp.Est {
					violations = append(violations, fmt.Sprintf(
						"%s {%d,%d}: cycles changed: board %d est %d, baseline board %d est %d (determinism or timing-model regression)",
						key, bp.ISize, bp.DSize, cp.Board, cp.Est, bp.Board, bp.Est))
				}
			}
		}
		if cur.MAPE > base.MAPE+tolPts {
			violations = append(violations, fmt.Sprintf(
				"%s: MAPE %.2f%% above %.2f%% (baseline %.2f%% + %.2f pt tolerance)",
				key, cur.MAPE, base.MAPE+tolPts, base.MAPE, tolPts))
		}
		if floor := base.Pearson - tolPts/100; cur.Pearson < floor {
			violations = append(violations, fmt.Sprintf(
				"%s: Pearson r %.4f below %.4f (baseline %.4f - %.4f tolerance)",
				key, cur.Pearson, floor, base.Pearson, tolPts/100))
		}
	}
	return violations
}

// String renders the scoreboard as an aligned table.
func (s *Scoreboard) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accuracy scoreboard (estimated vs board end cycles; MP3 %d frames, JPEG %d blocks)\n", s.Frames, s.Blocks)
	fmt.Fprintf(&sb, "%-10s %-5s %-7s %-6s %7s %8s\n", "train", "app", "design", "cross", "MAPE", "Pearson")
	for _, r := range s.Rows {
		cross := ""
		if r.Cross {
			cross = "yes"
		}
		fmt.Fprintf(&sb, "%-10s %-5s %-7s %-6s %6.2f%% %8.4f\n", r.Train, r.App, r.Design, cross, r.MAPE, r.Pearson)
	}
	for _, a := range s.Aggregates {
		fmt.Fprintf(&sb, "%-10s %-5s %-7s %-6s %6.2f%% %8.4f   (aggregate, %d points)\n",
			a.Train, "all", "", "", a.MAPE, a.Pearson, a.Points)
		if a.CrossPoints > 0 {
			fmt.Fprintf(&sb, "%-10s %-5s %-7s %-6s %6.2f%% %8.4f   (cross-validation, %d points)\n",
				a.Train, "all", "", "yes", a.CrossMAPE, a.CrossPearson, a.CrossPoints)
		}
	}
	return sb.String()
}
