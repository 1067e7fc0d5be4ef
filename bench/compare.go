package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// compareMain is `bench compare PARENT_DIR CHANGE_DIR`. Each directory
// holds the standard output of benchmark runs, one WORKLOAD-*.out file
// per run ("tlm_long-3.out"); other files are ignored. For every
// (end-to-end metric, workload) pair it prints both sides' medians and
// quartiles and the share of pairs (the i-th parent file against the i-th
// change file, in name order) the change wins, then a verdict against the
// metric's bound in BENCHMARK.json:
//
//   - improved: the change wins at least 90% of the pairs and the medians
//     differ by more than the parent's interquartile range — or, when the
//     spread is wider than the bound, every change run beats every parent
//     run;
//   - unresolved: either side's spread (interquartile range over median)
//     is wider than the bound;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
//
// Every run must also be correct with no failed operation: its outputs
// matched the golden digests exactly. It exits 0 only when no pair
// regressed or is unresolved and every run is correct.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2]map[string][]*result
	for i, dir := range args {
		if sides[i], err = loadRuns(dir, spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	ok := true
	for i, side := range []string{"parent", "change"} {
		for wl, runs := range sides[i] {
			for k, r := range runs {
				if !r.Correct || r.Failed != 0 {
					fmt.Fprintf(w, "FAIL %s run %d of %s: correct=%v failed=%d\n", side, k+1, wl, r.Correct, r.Failed)
					ok = false
				}
			}
		}
	}
	fmt.Fprintf(w, "%-15s %-18s %5s %28s %28s %6s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, ws := range spec.Workloads {
		parent, change := sides[0][ws.Name], sides[1][ws.Name]
		if len(parent) == 0 || len(change) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			v := judge(p, c, m)
			fmt.Fprintf(w, "%-15s %-18s %5d %28s %28s %5.0f%%  %s\n", ws.Name, m.Name, v.pairs,
				quartiles(p), quartiles(c), 100*v.won, v.verdict)
			if v.verdict == "regressed" || v.verdict == "unresolved" {
				ok = false
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// loadRuns reads every run file of a directory, keyed by workload: the
// last non-empty line of each file is the run's result.
func loadRuns(dir string, spec *benchSpec) (map[string][]*result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := map[string][]*result{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".out") {
			continue
		}
		wl := ""
		for _, ws := range spec.Workloads {
			if strings.HasPrefix(e.Name(), ws.Name+"-") {
				wl = ws.Name
			}
		}
		if wl == "" {
			continue
		}
		r, err := lastResult(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs[wl] = append(runs[wl], r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no WORKLOAD-*.out run files", dir)
	}
	return runs, nil
}

func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &r, nil
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartiles(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75))
}

// spread is the interquartile range over the median.
func spread(v []float64) float64 {
	return math.Abs(ratio(quantile(v, 0.75)-quantile(v, 0.25), quantile(v, 0.5)))
}

type verdict struct {
	pairs   int
	won     float64 // share of pairs the change wins; ties count for neither side
	verdict string
}

// judge applies the comparison rule of compareMain to one metric.
func judge(parent, change []float64, m metricSpec) verdict {
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{pairs: min(len(parent), len(change))}
	if len(parent) == 0 || len(change) == 0 {
		v.verdict = "unresolved"
		return v
	}
	wins := 0
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	v.won = ratio(float64(wins), float64(v.pairs))
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := ratio(cm-pm, math.Abs(pm)) // relative worsening of a lower-is-better metric
	if m.Better == "higher" {
		worse = -worse
	}
	wide := spread(parent) > m.Bound || spread(change) > m.Bound
	switch {
	case v.won >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > iqr && !wide, wide && allBetter:
		v.verdict = "improved"
	case wide:
		v.verdict = "unresolved"
	case worse > m.Bound:
		v.verdict = "regressed"
	default:
		v.verdict = "unchanged"
	}
	return v
}
