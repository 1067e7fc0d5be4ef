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
//	-dse FILE     run the design-space sweep described in FILE (see
//	              DESIGN.md) and print its Pareto front; the esedse
//	              command adds sharding, checkpoint/resume and file
//	              outputs
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
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"

	"ese"
	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/cli"
	"ese/internal/dse"
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
	dseSpec := flag.String("dse", "", "run the design-space sweep described in FILE and print its Pareto front")
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
	if *dseSpec != "" {
		cli.Fail("esebench", runDSE(*dseSpec, *jsonOut))
		return
	}
	acc := gate{record: *accJSON, compare: *accCompare, tol: *accTol,
		name: "accuracy", noun: "accuracy scoreboard", tolerance: fmt.Sprintf("%.2f pt MAPE drift", *accTol)}
	bench := gate{record: *benchJSON, compare: *benchCompare, tol: *benchTol,
		name: "benchmark", noun: "benchmark trajectory", tolerance: fmt.Sprintf("%.0f%%", 100**benchTol)}
	cli.Fail("esebench", run(&spec, *table, *ablation, *all, *jsonOut, *showMetrics, *benchReps, bench, acc))
}

// tables and ablations are every experiment, in the order -all runs them.
var (
	tables = []func(*experiments.Setup) (any, error){
		func(s *experiments.Setup) (any, error) { return experiments.RunTable1(s) },
		func(s *experiments.Setup) (any, error) { return experiments.RunTable2(s) },
		func(s *experiments.Setup) (any, error) { return experiments.RunTable3(s) },
	}
	ablations = []struct {
		name string
		run  func(*experiments.Setup) (any, error)
	}{
		{"sensitivity", func(s *experiments.Setup) (any, error) {
			return experiments.RunSensitivity(s, pum.CacheCfg{ISize: 2048, DSize: 2048}, []float64{-0.5, -0.25, 0, 0.25, 0.5})
		}},
		{"granularity", func(s *experiments.Setup) (any, error) { return experiments.RunGranularity(s, "SW+4") }},
		{"pumdetail", func(s *experiments.Setup) (any, error) {
			return experiments.RunPUMDetail(s, pum.CacheCfg{ISize: 2048, DSize: 2048})
		}},
		{"rtos", func(s *experiments.Setup) (any, error) { return experiments.RunRTOSStudy(s) }},
		{"overlap", func(s *experiments.Setup) (any, error) { return experiments.RunOverlapStudy(s) }},
		{"blocksize", func(s *experiments.Setup) (any, error) { return experiments.RunBlockSizeStudy(s) }},
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
	if acc.on() {
		// The scoreboard performs its own per-training-set calibrations;
		// the shared MP3-only setup below would be redundant work.
		o := calib.Options{Frames: spec.Frames, Blocks: apps.DefaultJPEG.Blocks, Engine: opts}
		return runGate(acc, &calib.Scoreboard{Frames: o.Frames, Blocks: o.Blocks}, calib.LoadScoreboard,
			func() (*calib.Scoreboard, error) { return calib.RunScoreboard(o) })
	}
	setup := func() (*experiments.Setup, error) {
		if !jsonOut {
			fmt.Printf("workload: MP3-like decode, %d frames (eval seed 0x%X, train seed 0x%X)\n",
				spec.Frames, apps.DefaultMP3.Seed, apps.TrainMP3.Seed)
			fmt.Println("calibrating statistical PUM models on the training workload...")
		}
		return experiments.NewSetup(spec.Frames, opts)
	}
	if bench.on() {
		return runGate(bench, &experiments.PerfBench{Frames: spec.Frames}, experiments.LoadBaseline,
			func() (*experiments.PerfBench, error) {
				s, err := setup()
				if err != nil {
					return nil, err
				}
				defer cli.PrintDiags("esebench", s.Pipe.Diagnostics())
				return experiments.RunPerfBench(s, benchReps)
			})
	}
	s, err := setup()
	if err != nil {
		return err
	}
	defer cli.PrintDiags("esebench", s.Pipe.Diagnostics())
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
			if err := emit(runTable(s)); err != nil {
				return err
			}
		}
	}
	for _, e := range ablations {
		if all || ablation == e.name {
			if err := emit(e.run(s)); err != nil {
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

// runDSE runs a declarative design-space sweep and prints its Pareto
// front — the quick-look mode; the esedse command adds sharded
// checkpointing, resume and file outputs for real sweeps.
func runDSE(path string, jsonOut bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return cli.Input(err)
	}
	sweep, err := dse.ParseSweep(data)
	if err != nil {
		return cli.Input(err)
	}
	res, err := dse.Run(context.Background(), sweep, dse.Options{})
	if err != nil {
		return err
	}
	if jsonOut {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	s := res.Summary
	fmt.Printf("design-space sweep: %d points, %d on the Pareto front, cache hit rate %.1f%%\n",
		s.Points, len(res.Pareto), 100*s.CacheHitRate)
	return dse.WriteCSV(os.Stdout, res.Pareto)
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
// prints and writes the fresh record and reports its drift (exit 1).
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
	fmt.Print(cur)
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
	fmt.Printf("%s within tolerance of %s (%s)\n", g.name, g.compare, g.tolerance)
	return nil
}
