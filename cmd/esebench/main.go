// Command esebench reproduces the paper's evaluation: Table 1
// (scalability), Table 2 (SW-only accuracy vs ISS and board), Table 3
// (accuracy of the hardware-accelerated designs), and the ablations
// documented in DESIGN.md.
//
// Usage:
//
//	esebench [-frames N] [-table 1|2|3] [-ablation sensitivity|granularity|pumdetail|rtos|overlap|blocksize] [-all]
//
//	-validate     run the cross-model validation suite instead of the
//	              experiments: static verification and the
//	              tree/compiled/board differential over every example
//	              design, the metamorphic estimator invariants, and the
//	              seeded-mutation corpus (every corruption must be caught)
//	-timeout D    one deadline for the whole run, -validate excepted
//	-metrics      print the pipeline's internal metrics snapshot at exit
//	-pprof ADDR   serve net/http/pprof on ADDR (e.g. localhost:6060) for
//	              the duration of the run
//
// Exit codes: 0 success, 1 runtime failure (including timeout), 2 usage or
// input error, an unknown -table or -ablation included. For -bench-compare
// and -accuracy-compare: 0 within tolerance, 1 a genuine regression, 2 a
// baseline that is missing, malformed, foreign or of another workload,
// before anything is measured. Diagnostics go to stderr, results to stdout.
//
// The accuracy scoreboard (-accuracy FILE, -accuracy-compare FILE,
// -accuracy-tolerance PTS) calibrates the statistical PUM models per
// training set and scores the timed TLM against the cycle-accurate board
// over the application × design × cache matrix — MAPE and Pearson r per
// row, cross-validation rows included (see internal/calib).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"

	"ese"
	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/cli"
	"ese/internal/experiments"
	"ese/internal/jobspec"
	"ese/internal/pum"
)

func main() {
	// The run-shaped options (-frames, -exec, -timeout) live in the shared
	// job spec; everything else here selects which experiments to print.
	spec := jobspec.DefaultTLM()
	spec.Calibrate = true
	spec.BindRun(flag.CommandLine)
	flag.IntVar(&spec.Frames, "frames", spec.Frames, "MP3 frames per run")
	table := flag.Int("table", 0, "reproduce one table (1, 2 or 3)")
	ablation := flag.String("ablation", "", "run one ablation: "+strings.Join(ablationNames(), ", "))
	all := flag.Bool("all", false, "run every table and ablation")
	validate := flag.Bool("validate", false, "run the cross-model validation suite and exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON lines instead of tables")
	showMetrics := flag.Bool("metrics", false, "print the pipeline metrics snapshot at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	benchJSON := flag.String("bench-json", "", "measure the engine perf trajectory and write it as JSON to FILE (\"-\" = stdout)")
	benchCompare := flag.String("bench-compare", "", "measure the engine perf trajectory and compare it against the baseline JSON in FILE")
	benchReps := flag.Int("bench-reps", 5, "repetitions per design for -bench-json/-bench-compare (min is recorded)")
	benchTol := flag.Float64("bench-tolerance", 0.30, "allowed relative speedup regression for -bench-compare")
	accJSON := flag.String("accuracy", "", "run the calibration accuracy scoreboard and write it as JSON to FILE (\"-\" = stdout)")
	accCompare := flag.String("accuracy-compare", "", "run the accuracy scoreboard and compare it against the baseline JSON in FILE")
	accTol := flag.Float64("accuracy-tolerance", 1.0, "allowed per-row MAPE drift in percentage points for -accuracy-compare")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank
			// import; the server lives for the process lifetime.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "esebench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "esebench: pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *validate {
		cli.Fail("esebench", ese.ValidationSuite(os.Stdout, spec.Frames))
		return
	}
	acc := gate{record: *accJSON, compare: *accCompare, tol: *accTol,
		name: "accuracy", noun: "accuracy scoreboard", tolerance: fmt.Sprintf("%.2f pt MAPE drift", *accTol)}
	bench := gate{record: *benchJSON, compare: *benchCompare, tol: *benchTol,
		name: "benchmark", noun: "benchmark trajectory", tolerance: fmt.Sprintf("%.0f%%", 100**benchTol)}
	cli.Fail("esebench", run(&spec, *table, *ablation, *all, *jsonOut, *showMetrics, *benchReps, bench, acc))
}

// experiment runs one table or ablation on a setup under the run's
// deadline.
type experiment func(context.Context, *experiments.Setup) (any, error)

// exp adapts a table or ablation runner to an experiment.
func exp[T any](run func(context.Context, *experiments.Setup) (T, error)) experiment {
	return func(ctx context.Context, s *experiments.Setup) (any, error) { return run(ctx, s) }
}

// tables and ablations are every experiment, in the order -all runs them.
var (
	tables    = []experiment{exp(experiments.RunTable1), exp(experiments.RunTable2), exp(experiments.RunTable3)}
	ablations = []struct {
		name string
		run  experiment
	}{
		{"sensitivity", func(ctx context.Context, s *experiments.Setup) (any, error) {
			return experiments.RunSensitivity(ctx, s, pum.CacheCfg{ISize: 2048, DSize: 2048}, []float64{-0.5, -0.25, 0, 0.25, 0.5})
		}},
		{"granularity", func(ctx context.Context, s *experiments.Setup) (any, error) {
			return experiments.RunGranularity(ctx, s, "SW+4")
		}},
		{"pumdetail", func(ctx context.Context, s *experiments.Setup) (any, error) {
			return experiments.RunPUMDetail(ctx, s, pum.CacheCfg{ISize: 2048, DSize: 2048})
		}},
		{"rtos", exp(experiments.RunRTOSStudy)},
		{"overlap", exp(experiments.RunOverlapStudy)},
		{"blocksize", exp(experiments.RunBlockSizeStudy)},
	}
)

func ablationNames() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return names
}

func run(spec *jobspec.Spec, table int, ablation string, all, jsonOut, showMetrics bool, benchReps int, bench, acc gate) error {
	if err := spec.Validate(); err != nil {
		return cli.Input(err)
	}
	opts, err := spec.Options()
	if err != nil {
		return cli.Input(err)
	}
	if table < 0 || table > len(tables) {
		return cli.Input(fmt.Errorf("-table %d: want 1 to %d", table, len(tables)))
	}
	if ablation != "" && !slices.Contains(ablationNames(), ablation) {
		return cli.Input(fmt.Errorf("-ablation %q: want one of %s", ablation, strings.Join(ablationNames(), ", ")))
	}
	ctx, cancel := spec.WithTimeout(context.Background(), 0)
	defer cancel()
	if acc.on() {
		// The scoreboard performs its own per-training-set calibrations;
		// the shared MP3-only setup below would be redundant work.
		o := calib.Options{Frames: spec.Frames, Blocks: apps.DefaultJPEG.Blocks, Engine: opts, Ctx: ctx}
		return runGate(acc, &calib.Scoreboard{Frames: o.Frames, Blocks: o.Blocks}, calib.LoadScoreboard,
			func() (*calib.Scoreboard, error) { return calib.RunScoreboard(o) })
	}
	setup := func() (*experiments.Setup, error) {
		if !jsonOut {
			fmt.Fprintf(bench.out(), "workload: MP3-like decode, %d frames (eval seed 0x%X, train seed 0x%X)\n",
				spec.Frames, apps.DefaultMP3.Seed, apps.TrainMP3.Seed)
			fmt.Fprintln(bench.out(), "calibrating statistical PUM models on the training workload...")
		}
		return experiments.NewSetup(ctx, spec.Frames, opts)
	}
	if bench.on() {
		return runGate(bench, &experiments.PerfBench{Frames: spec.Frames}, experiments.LoadBaseline,
			func() (*experiments.PerfBench, error) {
				s, err := setup()
				if err != nil {
					return nil, err
				}
				defer func() { cli.PrintDiags("esebench", s.Diagnostics()) }()
				return experiments.RunPerfBench(ctx, s, benchReps)
			})
	}
	s, err := setup()
	if err != nil {
		return err
	}
	defer func() { cli.PrintDiags("esebench", s.Diagnostics()) }()
	emit := func(v any, err error) error {
		if err != nil {
			return err
		}
		if !jsonOut {
			fmt.Println(v)
		} else if data, err := json.Marshal(v); err != nil {
			fmt.Println(`{"error":"marshal failed"}`)
		} else {
			fmt.Println(string(data))
		}
		return nil
	}
	if !jsonOut {
		fmt.Printf("calibrated branch misprediction ratio: %.3f\n\n", s.MB.Branch.MissRate)
	}

	if all || table == 0 && ablation == "" {
		all = true
	}
	for i, runTable := range tables {
		if all || table == i+1 {
			if err := emit(runTable(ctx, s)); err != nil {
				return err
			}
		}
	}
	for _, e := range ablations {
		if all || ablation == e.name {
			if err := emit(e.run(ctx, s)); err != nil {
				return err
			}
		}
	}
	if !jsonOut {
		cs := s.Pipe.Stats()
		fmt.Printf("\nestimation cache: %d schedule hits / %d misses, %d estimate hits / %d misses\n",
			cs.SchedHits, cs.SchedMisses, cs.EstHits, cs.EstMisses)
		if cs.DegradedBlocks > 0 {
			fmt.Printf("degraded estimation: %d ops in %d blocks used fallback latency (unmapped op classes)\n",
				cs.UnmappedOps, cs.DegradedBlocks)
		}
	}
	if showMetrics {
		fmt.Printf("\npipeline metrics:\n%s", s.Pipe.MetricsSnapshot())
	}
	return nil
}

// gate holds one committed-baseline gate's flags — record FILE writes a
// fresh run (-accuracy, -bench-json), compare FILE checks it against a
// baseline (-accuracy-compare, -bench-compare) — and its messages' words.
type gate struct {
	record, compare string
	tol             float64
	name            string // the gate in drift messages: "accuracy", "benchmark"
	noun            string // what a record holds: "accuracy scoreboard"
	tolerance       string // tol as the success line prints it
}

func (g gate) on() bool { return g.record != "" || g.compare != "" }

// out is where the gate prints its table and status lines: stderr when
// the record goes to stdout ("-"), so that stdout carries the record
// alone.
func (g gate) out() io.Writer {
	if g.record == "-" {
		return os.Stderr
	}
	return os.Stdout
}

// record is what a gate measures, writes and compares: an accuracy
// scoreboard or an engine benchmark.
type record[T any] interface {
	cli.Baseline
	fmt.Stringer
	Compare(baseline T, tol float64) []string
}

// runGate is the one driver of both gates. It reads and checks the
// baseline, its workload against run's included, before measure
// calibrates anything, so an unusable baseline exits 2 at once; then it
// prints (to g.out) and writes the fresh record and reports its drift
// (exit 1).
func runGate[T record[T]](g gate, run T, load func(path string) (T, error), measure func() (T, error)) error {
	var base T
	if g.compare != "" {
		var err error
		if base, err = load(g.compare); err != nil {
			return err
		}
		if err := cli.SameWorkload(g.compare, base, run.Workload()); err != nil {
			return err
		}
	}
	cur, err := measure()
	if err != nil {
		return err
	}
	fmt.Fprint(g.out(), cur)
	if g.record != "" {
		if err := cli.WriteRecord(g.record, cur); err != nil {
			return err
		}
		if g.record != "-" {
			fmt.Printf("wrote %s to %s\n", g.noun, g.record)
		}
	}
	if g.compare == "" {
		return nil
	}
	if err := cli.Drift("esebench", g.name, g.compare, cur.Compare(base, g.tol)); err != nil {
		return err
	}
	fmt.Fprintf(g.out(), "%s within tolerance of %s (%s)\n", g.name, g.compare, g.tolerance)
	return nil
}
