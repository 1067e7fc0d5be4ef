// Command bench is the repository benchmark. It drives the estimation
// toolchain through its public package entry points — jobspec.Runner,
// dse.Run, the esed server over loopback HTTP and calib.RunScoreboard — on
// four workloads, checks every output against committed golden digests,
// and prints each metric by name with its unit, then one JSON object on
// its last line.
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -update-golden
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
//
// An untraced run (--trace 0) reports the end-to-end metrics named in
// BENCHMARK.json; a traced run (--trace 1) repeats the window with spans
// around every layer call, reports the per-layer metrics and writes the
// spans as Chrome trace_event JSON.
//
// Exit codes: 0 success, 1 an output failed its check (the result line
// says correct=false) or the run failed, 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/dse"
	"ese/internal/pum"
)

// workloads maps BENCHMARK.json's workload names onto their implementations.
var workloads = map[string]workload{
	"dse_sweep":      dseSweep{},
	"tlm_long":       tlmLong{},
	"esed_mixed":     esedMixed{},
	"accuracy_score": accuracyScore{},
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// sizing fixes how much work one page holds. standardSizing is what
// BENCHMARK.json runs and golden.json pins; the smoke test shrinks it.
type sizing struct {
	root      string
	pinned    bool          // outputs are pinned by golden.json and BENCH_accuracy.json
	sweep     *dse.Sweep    // dse_sweep: the swept axes (a page is one datapath)
	tlmFrames int           // tlm_long: MP3 frames per job
	tlmBlocks int           // tlm_long: JPEG blocks per job
	score     calib.Options // accuracy_score: the scoreboard matrix
}

func standardSizing(root string) (sizing, error) {
	path := filepath.Join(root, "bench", "workloads", "dse_sweep.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return sizing{}, err
	}
	sw, err := dse.ParseSweep(data)
	if err != nil {
		return sizing{}, fmt.Errorf("%s: %w", path, err)
	}
	return sizing{
		root:      root,
		pinned:    true,
		sweep:     sw,
		tlmFrames: 32,
		tlmBlocks: 128,
		score: calib.Options{
			Frames:  apps.DefaultMP3.Frames,
			Blocks:  apps.DefaultJPEG.Blocks,
			Trains:  calib.StandardTrains,
			Apps:    []string{"mp3", "jpeg"},
			Configs: pum.StandardCacheConfigs,
		},
	}, nil
}

// benchSpec is BENCHMARK.json: the workloads and the metrics every run
// reports, with their units and regression bounds.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workSpec   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric and result are the JSON shape of the last output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dse_sweep, tlm_long, esed_mixed or accuracy_score")
	seed := fs.Uint64("seed", 1, "workload seed: picks and orders the pages a run visits")
	seconds := fs.Int("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-WORKLOAD-SEED.json)")
	update := fs.Bool("update-golden", false, "recompute bench/golden.json, checking every page on a second engine")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	root, err := findRoot()
	if err != nil {
		return usage("%v", err)
	}
	sz, err := standardSizing(root)
	if err != nil {
		return usage("%v", err)
	}
	ctx := context.Background()
	w, ok := workloads[*name]
	if *update {
		if *name != "" && !ok {
			return usage("unknown workload %q", *name)
		}
		if err := updateGolden(ctx, sz, *name, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if !ok {
		return usage("unknown workload %q (want dse_sweep, tlm_long, esed_mixed or accuracy_score)", *name)
	}
	if *seconds < 1 || *trace != 0 && *trace != 1 {
		return usage("--seconds must be positive and --trace 0 or 1")
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return usage("%v", err)
	}
	gold, err := loadGolden(root)
	if err != nil {
		return usage("%v", err)
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, setups: setups, size: sz, golden: gold[*name]}
	if n := w.pool(sz); n > 0 && len(o.golden) != n {
		return usage("golden.json has %d digests for %s, its pool has %d pages: run -update-golden", len(o.golden), *name, n)
	}
	out, err := run(ctx, w, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out.tracer != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		if err := out.tracer.write(path, out.trackOf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(out.tracer.spans), path)
	}
	res, err := report(stdout, spec, *name, out, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report checks a run's outputs, prints its metrics and returns the
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func report(w io.Writer, spec *benchSpec, name string, out *outcome, o options) (*result, error) {
	wins := []*window{out.untraced}
	if out.traced != nil {
		wins = append(wins, out.traced)
	}
	res := &result{Metrics: map[string]metric{}}
	// A page must give the same digest every time a run visits it, traced
	// or not; golden.json (when it applies) was checked page by page.
	seen := map[int]string{}
	conflicts := 0
	for _, win := range wins {
		res.Attempted += win.ops
		res.Failed += win.failed
		for i, err := range win.errs {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "bench: ... %d more failures\n", len(win.errs)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		for _, p := range win.pages {
			if p.digest == "" {
				continue
			}
			if d, ok := seen[p.page]; ok && d != p.digest {
				fmt.Fprintf(os.Stderr, "bench: page %d gave digests %s and %s\n", p.page, d, p.digest)
				conflicts++
			}
			seen[p.page] = p.digest
		}
	}
	res.Correct = res.Failed == 0 && conflicts == 0

	u := out.untraced
	fmt.Fprintf(w, "workload %s seed %d: %d pages, %d operations, %d failed, %.3f s window\n",
		name, o.seed, len(u.pages), u.ops, u.failed, u.elapsed.Seconds())
	switch {
	case o.golden != nil:
		fmt.Fprintf(w, "outputs: %d distinct pages checked against golden.json\n", len(seen))
	case o.size.pinned:
		fmt.Fprintln(w, "outputs: every scoreboard checked against BENCH_accuracy.json (exact cycles)")
	}
	keys := make([]string, 0, len(u.info))
	for k := range u.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "exact %s %.4f\n", k, u.info[k])
	}

	vals := map[string]float64{}
	defs := spec.EndToEnd
	if out.traced == nil {
		setup := quantile(out.setupS, 0.5)
		vals["setup_s"] = setup * out.setupFactor
		vals["throughput_per_s"] = u.normRate()
		vals["latency_ms_p50"] = quantile(u.normLat, 0.5)
		vals["latency_ms_p90"] = quantile(u.normLat, 0.9)
		vals["max_rss_mb"] = u.rssMB
		fmt.Fprintf(w, "latency samples: %d\n", len(u.lat))
		fmt.Fprintf(w, "host probe: median %.3f ms, reference %.3f ms; raw host times: setup_s %.4g throughput_per_s %.4g latency_ms_p50 %.4g latency_ms_p90 %.4g\n",
			u.probeMs, probeRefMs, setup, u.rate(), quantile(u.lat, 0.5), quantile(u.lat, 0.9))
	} else {
		defs = spec.PerLayer
		for k, v := range out.layers {
			vals[k] = v
		}
		vals["trace_overhead_pct"] = 100 * (ratio(u.normRate(), out.traced.normRate()) - 1)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", k)
		}
	}
	return res, nil
}

// updateGolden recomputes the digest of every page of every pinned
// workload (or only of the named one), each checked on a second execution
// engine, and rewrites bench/golden.json.
func updateGolden(ctx context.Context, sz sizing, only string, log io.Writer) error {
	g, err := loadGolden(sz.root)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		if only == "" || n == only {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w := workloads[n]
		pool := w.pool(sz)
		if pool == 0 {
			continue
		}
		in, err := w.setup(ctx, sz, nil)
		if err != nil {
			return err
		}
		gs, ok := in.(goldenSource)
		if !ok {
			in.close()
			return fmt.Errorf("%s has a page pool but no golden digests", n)
		}
		start := time.Now()
		digests := make([]string, pool)
		for p := range digests {
			if digests[p], err = gs.golden(ctx, p); err != nil {
				in.close()
				return err
			}
			if (p+1)%max(1, pool/8) == 0 {
				fmt.Fprintf(log, "%s: %d/%d pages (%.0f s)\n", n, p+1, pool, time.Since(start).Seconds())
			}
		}
		if err := in.close(); err != nil {
			return err
		}
		g[n] = digests
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(sz.root), append(data, '\n'), 0o644)
}
