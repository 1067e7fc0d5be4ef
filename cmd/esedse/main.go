// Command esedse expands and runs a design-space exploration sweep: a
// declarative JSON description of axes over application, PE design,
// pipeline depth and issue width, FU mix, cache geometry and branch
// model is lowered to one job spec per point, executed through the
// shared estimation pipeline against one content-addressed cache, and
// collected into deterministic row tables plus the Pareto front over
// (end time, FU-area proxy, estimation steps).
//
// Usage:
//
//	esedse -spec sweep.json [flags]
//
//	-spec FILE       sweep description ("-" = stdin); see DESIGN.md for
//	                 the schema
//	-out DIR         write rows.csv, rows.json, pareto.csv, pareto.json
//	                 and summary.json into DIR (default: print the Pareto
//	                 front as CSV on stdout)
//	-state DIR       checkpoint directory: completed points are appended
//	                 per shard and a rerun with the same sweep resumes
//	                 instead of re-simulating (kill-safe)
//	-shards N        checkpoint/progress granularity (default 8)
//	-workers N       parallel point executions (default GOMAXPROCS)
//	-cache-limit N   bound the schedule/estimate cache to N schedule
//	                 entries and N block estimates across its estimate
//	                 tables (default unbounded)
//	-halt-after N    stop (exit 1) after N newly executed points — the
//	                 kill/resume test hook used by CI
//	-timeout D       wall-clock bound for the whole sweep
//	-progress        print per-point completion lines to stderr
//
// Row tables and the Pareto front contain only deterministic columns:
// rerunning a sweep — interrupted or not — produces byte-identical
// files. Host-dependent measurements (wall clock, cache hit rates) stay
// in summary.json.
//
// Exit codes: 0 success, 1 runtime failure (including timeout and
// -halt-after), 2 usage or input error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ese/internal/cli"
	"ese/internal/core"
	"ese/internal/dse"
	"ese/internal/jobspec"
)

func main() {
	spec := flag.String("spec", "", "sweep description JSON (\"-\" = stdin)")
	out := flag.String("out", "", "output directory for rows/pareto/summary files")
	state := flag.String("state", "", "checkpoint directory for kill-safe resume")
	shards := flag.Int("shards", 8, "checkpoint/progress shards")
	workers := flag.Int("workers", 0, "parallel point executions (0 = GOMAXPROCS)")
	cacheLimit := flag.Int("cache-limit", 0, "bound the schedule/estimate cache: schedule entries, and block estimates across estimate tables (0 = unbounded)")
	haltAfter := flag.Int("halt-after", 0, "halt after N newly executed points (kill/resume test hook)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the whole sweep")
	progress := flag.Bool("progress", false, "print per-point completion lines to stderr")
	flag.Parse()
	cli.Fail("esedse", run(*spec, *out, *state, *shards, *workers, *cacheLimit, *haltAfter, *timeout, *progress))
}

func run(specPath, outDir, stateDir string, shards, workers, cacheLimit, haltAfter int, timeout time.Duration, progress bool) error {
	if specPath == "" {
		return cli.Input(fmt.Errorf("esedse: -spec is required (\"-\" reads stdin)"))
	}
	if flag.NArg() > 0 {
		return cli.Input(fmt.Errorf("esedse: unexpected arguments %v", flag.Args()))
	}
	var data []byte
	var err error
	if specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(specPath)
	}
	if err != nil {
		return cli.Input(err)
	}
	sweep, err := dse.ParseSweep(data)
	if err != nil {
		return cli.Input(err)
	}
	if shards < 1 {
		return cli.Input(fmt.Errorf("esedse: -shards must be at least 1"))
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := dse.Options{
		Shards:    shards,
		Workers:   workers,
		StateDir:  stateDir,
		HaltAfter: haltAfter,
		Runner:    &jobspec.Runner{Cache: core.NewCacheLimit(cacheLimit)},
	}
	if progress {
		opts.Progress = func(p dse.Progress) {
			tag := ""
			if p.Resumed {
				tag = " (resumed)"
			}
			fmt.Fprintf(os.Stderr, "esedse: point %d done, %d/%d, shard %d%s\n",
				p.Index, p.Done, p.Total, p.Shard, tag)
		}
	}
	res, err := dse.Run(ctx, sweep, opts)
	if err != nil {
		return err
	}

	if outDir == "" {
		if err := dse.WriteCSV(os.Stdout, res.Pareto); err != nil {
			return err
		}
	} else {
		if err := writeOutputs(outDir, res); err != nil {
			return err
		}
	}
	s := res.Summary
	fmt.Fprintf(os.Stderr,
		"esedse: %d points (%d resumed, %d ran) in %s, %d on the Pareto front, cache hit rate %.1f%%\n",
		s.Points, s.Resumed, s.Ran, time.Duration(s.WallNs).Round(time.Millisecond),
		len(res.Pareto), 100*s.CacheHitRate)
	return nil
}

// writeOutputs materializes the result tables. The CSV/JSON row files
// are deterministic; only summary.json carries host-dependent numbers.
func writeOutputs(dir string, res *dse.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, emit func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return fmt.Errorf("esedse: writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("rows.csv", func(w io.Writer) error { return dse.WriteCSV(w, res.Rows) }); err != nil {
		return err
	}
	if err := write("rows.json", func(w io.Writer) error { return dse.WriteJSON(w, res.Rows) }); err != nil {
		return err
	}
	if err := write("pareto.csv", func(w io.Writer) error { return dse.WriteCSV(w, res.Pareto) }); err != nil {
		return err
	}
	if err := write("pareto.json", func(w io.Writer) error { return dse.WriteJSON(w, res.Pareto) }); err != nil {
		return err
	}
	return write("summary.json", func(w io.Writer) error {
		data, err := json.MarshalIndent(res.Summary, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
}
