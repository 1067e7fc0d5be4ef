// Command esebench reproduces the paper's evaluation: Table 1
// (scalability), Table 2 (SW-only accuracy vs ISS and board), Table 3
// (accuracy of the hardware-accelerated designs), and the three ablations
// documented in DESIGN.md.
//
// Usage:
//
//	esebench [-frames N] [-table 1|2|3] [-ablation sensitivity|granularity|pumdetail] [-all]
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
// input error. For -bench-compare and -accuracy-compare specifically: 0
// within tolerance, 1 a genuine regression, 2 a baseline that is missing,
// truncated, or from a different design set/matrix. Diagnostics go to
// stderr, results to stdout.
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

	"ese"
	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/cli"
	"ese/internal/dse"
	"ese/internal/engine"
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
	ablation := flag.String("ablation", "", "run one ablation: sensitivity, granularity, pumdetail, rtos, overlap")
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
	cli.Fail("esebench", run(&spec, *table, *ablation, *all, *jsonOut, *showMetrics, benchCfg{
		json: *benchJSON, compare: *benchCompare,
		reps: *benchReps, tol: *benchTol,
	}, accCfg{
		json: *accJSON, compare: *accCompare, tol: *accTol,
	}))
}

// accCfg bundles the accuracy-scoreboard flag values.
type accCfg struct {
	json, compare string
	tol           float64
}

// benchCfg bundles the engine-benchmark flag values.
type benchCfg struct {
	json, compare string
	reps          int
	tol           float64
}

func run(spec *jobspec.Spec, table int, ablation string, all, jsonOut, showMetrics bool, bench benchCfg, acc accCfg) error {
	if err := spec.Validate(); err != nil {
		return cli.Input(err)
	}
	opts, err := spec.Options()
	if err != nil {
		return cli.Input(err)
	}
	if acc.json != "" || acc.compare != "" {
		// The scoreboard performs its own per-training-set calibrations;
		// the shared MP3-only setup below would be redundant work.
		return runAccuracy(spec.Frames, opts, acc)
	}
	if !jsonOut {
		fmt.Printf("workload: MP3-like decode, %d frames (eval seed 0x%X, train seed 0x%X)\n",
			spec.Frames, apps.DefaultMP3.Seed, apps.TrainMP3.Seed)
		fmt.Println("calibrating statistical PUM models on the training workload...")
	}
	s, err := experiments.NewSetup(spec.Frames, opts)
	if err != nil {
		return err
	}
	defer cli.PrintDiags("esebench", s.Pipe.Diagnostics())
	if bench.json != "" || bench.compare != "" {
		return runBench(s, bench)
	}
	emit := func(v any) {
		if jsonOut {
			data, err := json.Marshal(v)
			if err != nil {
				fmt.Println(`{"error":"marshal failed"}`)
				return
			}
			fmt.Println(string(data))
			return
		}
		fmt.Println(v)
	}
	if !jsonOut {
		fmt.Printf("calibrated branch misprediction ratio: %.3f\n\n", s.MB.Branch.MissRate)
	}

	if all || table == 0 && ablation == "" {
		all = true
	}
	if all || table == 1 {
		t1, err := experiments.RunTable1(s)
		if err != nil {
			return err
		}
		emit(t1)
	}
	if all || table == 2 {
		t2, err := experiments.RunTable2(s)
		if err != nil {
			return err
		}
		emit(t2)
	}
	if all || table == 3 {
		t3, err := experiments.RunTable3(s)
		if err != nil {
			return err
		}
		emit(t3)
	}
	if all || ablation == "sensitivity" {
		sens, err := experiments.RunSensitivity(s, pum.CacheCfg{ISize: 2048, DSize: 2048},
			[]float64{-0.5, -0.25, 0, 0.25, 0.5})
		if err != nil {
			return err
		}
		emit(sens)
	}
	if all || ablation == "granularity" {
		g, err := experiments.RunGranularity(s, "SW+4")
		if err != nil {
			return err
		}
		emit(g)
	}
	if all || ablation == "pumdetail" {
		p, err := experiments.RunPUMDetail(s, pum.CacheCfg{ISize: 2048, DSize: 2048})
		if err != nil {
			return err
		}
		emit(p)
	}
	if all || ablation == "rtos" {
		study, err := experiments.RunRTOSStudy(s)
		if err != nil {
			return err
		}
		emit(study)
	}
	if all || ablation == "overlap" {
		study, err := experiments.RunOverlapStudy(s)
		if err != nil {
			return err
		}
		emit(study)
	}
	if all || ablation == "blocksize" {
		study, err := experiments.RunBlockSizeStudy(s)
		if err != nil {
			return err
		}
		emit(study)
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

// runAccuracy runs the calibration accuracy scoreboard and either records
// it (-accuracy) or checks it against a committed baseline
// (-accuracy-compare).
func runAccuracy(frames int, opts engine.Options, acc accCfg) error {
	cur, err := calib.RunScoreboard(calib.Options{Frames: frames, Engine: opts})
	if err != nil {
		return err
	}
	fmt.Print(cur)
	if acc.json != "" {
		data, err := cur.ToJSON()
		if err != nil {
			return err
		}
		if acc.json == "-" {
			fmt.Print(string(data))
		} else if err := os.WriteFile(acc.json, data, 0o644); err != nil {
			return err
		} else {
			fmt.Printf("wrote accuracy scoreboard to %s\n", acc.json)
		}
	}
	if acc.compare != "" {
		// A missing, truncated or wrong-matrix baseline is an input error
		// (exit 2); only genuine accuracy drift exits 1.
		base, err := calib.LoadScoreboard(acc.compare)
		if err != nil {
			return err
		}
		if violations := cur.Compare(base, acc.tol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "esebench: accuracy regression: %s\n", v)
			}
			return fmt.Errorf("%d accuracy regression(s) against %s", len(violations), acc.compare)
		}
		fmt.Printf("accuracy within tolerance of %s (%.2f pt MAPE drift)\n", acc.compare, acc.tol)
	}
	return nil
}

// runBench measures the engine perf trajectory and either records it
// (-bench-json) or checks it against a committed baseline (-bench-compare).
func runBench(s *experiments.Setup, bench benchCfg) error {
	cur, err := experiments.RunPerfBench(s, bench.reps)
	if err != nil {
		return err
	}
	fmt.Print(cur)
	if bench.json != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if bench.json == "-" {
			fmt.Print(string(data))
		} else if err := os.WriteFile(bench.json, data, 0o644); err != nil {
			return err
		} else {
			fmt.Printf("wrote benchmark trajectory to %s\n", bench.json)
		}
	}
	if bench.compare != "" {
		// A missing, truncated or wrong-design-set baseline is an input
		// error (exit 2); only a genuine regression of the measurement
		// exits 1.
		base, err := experiments.LoadBaseline(bench.compare)
		if err != nil {
			return err
		}
		if violations := cur.Compare(base, bench.tol); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "esebench: bench regression: %s\n", v)
			}
			return fmt.Errorf("%d benchmark regression(s) against %s", len(violations), bench.compare)
		}
		fmt.Printf("benchmark within tolerance of %s (%.0f%%)\n", bench.compare, 100*bench.tol)
	}
	return nil
}
