package calib

import (
	"fmt"
	"math"
	"strings"

	"ese/internal/apps"
	"ese/internal/cli"
	"ese/internal/engine"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
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

// designNames lists the designs of an application.
func designNames(app string) ([]string, error) {
	switch app {
	case "mp3":
		return apps.MP3DesignNames, nil
	case "jpeg":
		return apps.JPEGDesignNames, nil
	default:
		return nil, cli.Input(fmt.Errorf("calib: unknown application %q", app))
	}
}

// Boards is the board-reference memo of one evaluation workload: the end
// cycles at the bus clock of each (app, design, cache configuration) on the
// cycle-accurate board. Board runs depend only on the design and the PUM
// datasheet constants — never on the calibrated statistics — so each
// reference is simulated once and serves every model scored against it.
// Not safe for concurrent use.
type Boards struct {
	frames, blocks int
	limit          uint64
	ends           map[string]uint64 // app/design/cfg -> end cycles at bus clock
}

// NewBoards returns an empty memo for MP3 evaluated on frames frames and
// JPEG on blocks blocks; limit bounds each board run's steps (0 = none).
func NewBoards(frames, blocks int, limit uint64) *Boards {
	return &Boards{frames: frames, blocks: blocks, limit: limit, ends: make(map[string]uint64)}
}

// Design maps one (app, design) evaluation workload onto a platform with
// the given model and cache configuration.
func (b *Boards) Design(app, design string, model *pum.PUM, cc pum.CacheCfg) (*platform.Design, error) {
	switch app {
	case "mp3":
		return apps.MP3Design(design, apps.MP3Config{Frames: b.frames, Seed: apps.DefaultMP3.Seed}, model, cc)
	case "jpeg":
		return apps.JPEGDesign(design, apps.JPEGConfig{Blocks: b.blocks, Seed: apps.DefaultJPEG.Seed}, model, cc)
	default:
		return nil, cli.Input(fmt.Errorf("calib: unknown application %q", app))
	}
}

// Ref returns the board reference of the (app, design) workload at cc. d is
// that workload as Design builds it, under any model; the board simulates
// it on the first request for the key only.
func (b *Boards) Ref(app, design string, cc pum.CacheCfg, d *platform.Design) (uint64, error) {
	key := fmt.Sprintf("%s/%s/%s", app, design, cc)
	if ref, ok := b.ends[key]; ok {
		return ref, nil
	}
	br, err := rtl.RunBoard(d, b.limit)
	if err != nil {
		return 0, fmt.Errorf("calib: board %s: %w", key, err)
	}
	ref := br.EndCycles(d.Bus.ClockHz)
	b.ends[key] = ref
	return ref, nil
}

// ScoreRow scores a calibrated model's timed-TLM estimate of one (app,
// design) against the board across cfgs: per configuration it builds the
// design, takes the board reference from boards and runs the estimate
// through pipe. Train and Cross are left to the caller.
func ScoreRow(pipe *engine.Pipeline, boards *Boards, model *pum.PUM, app, design string, cfgs []pum.CacheCfg) (Row, error) {
	row := Row{App: app, Design: design}
	for _, cc := range cfgs {
		d, err := boards.Design(app, design, model, cc)
		if err != nil {
			return Row{}, err
		}
		ref, err := boards.Ref(app, design, cc, d)
		if err != nil {
			return Row{}, err
		}
		res, err := pipe.RunTimed(d)
		if err != nil {
			return Row{}, fmt.Errorf("calib: estimate %s/%s/%s: %w", app, design, cc, err)
		}
		est := res.EndCycles(d.Bus.ClockHz)
		row.Points = append(row.Points, Point{
			ISize: cc.ISize, DSize: cc.DSize,
			Board: ref, Est: est,
			ErrPct: pct(float64(est), float64(ref)),
		})
	}
	row.MAPE, row.Pearson = score(row.Points)
	return row, nil
}

// RunScoreboard calibrates one model per training set and scores the
// estimated TLM against the cycle-accurate board over the matrix, sharing
// one board-reference memo across training sets.
func RunScoreboard(opts Options) (*Scoreboard, error) {
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
	wantDesign := func(name string) bool {
		if len(opts.Designs) == 0 {
			return true
		}
		for _, d := range opts.Designs {
			if d == name {
				return true
			}
		}
		return false
	}

	pipe := engine.New(opts.Engine)
	boards := NewBoards(opts.Frames, opts.Blocks, opts.Limit)
	sb := &Scoreboard{Frames: opts.Frames, Blocks: opts.Blocks}

	for _, label := range trains {
		ts, err := Trainings(label)
		if err != nil {
			return nil, err
		}
		model, _, err := Calibrate(pum.MicroBlaze(), ts, cfgs, opts.Limit)
		if err != nil {
			return nil, err
		}
		for _, app := range appList {
			designs, err := designNames(app)
			if err != nil {
				return nil, err
			}
			for _, design := range designs {
				if !wantDesign(design) {
					continue
				}
				row, err := ScoreRow(pipe, boards, model, app, design, cfgs)
				if err != nil {
					return nil, fmt.Errorf("%w (train %s)", err, label)
				}
				row.Train, row.Cross = label, !trainCovers(label, app)
				sb.Rows = append(sb.Rows, row)
			}
		}
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
