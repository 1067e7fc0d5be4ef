package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ese/internal/calib"
	"ese/internal/cli"
	"ese/internal/diag"
	"ese/internal/experiments"
	"ese/internal/jobspec"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// Both gates read and check their baseline, workload included, before
// they calibrate or measure: an unusable baseline exits 2 and measure
// never runs. The reader's own cases are cli.ReadBaseline's tests; here
// one of them stands for all, beside each gate's row check and workload.
func TestGatesRejectBaselineBeforeMeasuring(t *testing.T) {
	acc := gate{name: "accuracy", tol: 1}
	accRun := &calib.Scoreboard{Frames: 2, Blocks: 24}
	accMeasure := func() (*calib.Scoreboard, error) {
		t.Fatal("accuracy gate measured against an unusable baseline")
		return nil, nil
	}
	for name, path := range map[string]string{
		"missing":       filepath.Join(t.TempDir(), "missing.json"),
		"row check":     writeFile(t, "nopoints.json", `{"frames":2,"blocks":24,"rows":[{"train":"mp3","app":"mp3","design":"SW"}]}`),
		"workload":      writeFile(t, "frames1.json", `{"frames":1,"blocks":24,"rows":[{"train":"mp3","app":"mp3","design":"SW","points":[{}],"pearson":1}]}`),
		"jpeg workload": writeFile(t, "blocks8.json", `{"frames":2,"blocks":8,"rows":[{"train":"mp3","app":"mp3","design":"SW","points":[{}],"pearson":1}]}`),
	} {
		acc.compare = path
		if err := runGate(acc, accRun, calib.LoadScoreboard, accMeasure); cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("accuracy gate, %s: %v, want exit %d", name, err, cli.ExitUsage)
		}
	}

	bench := gate{name: "benchmark", tol: 0.3}
	benchRun := &experiments.PerfBench{Frames: 2}
	benchMeasure := func() (*experiments.PerfBench, error) {
		t.Fatal("benchmark gate measured against an unusable baseline")
		return nil, nil
	}
	const row = `{"design":"SW","tree_ns":5,"compiled_ns":2,"gen_ns":1,"speedup":2.5,"speedup_vs_compiled":2}`
	for name, path := range map[string]string{
		"missing":   filepath.Join(t.TempDir(), "missing.json"),
		"row check": writeFile(t, "pregen.json", `{"frames":2,"rows":[{"design":"SW","tree_ns":5,"compiled_ns":2,"speedup":2.5}]}`),
		"workload":  writeFile(t, "frames1.json", `{"frames":1,"rows":[`+row+`]}`),
	} {
		bench.compare = path
		if err := runGate(bench, benchRun, experiments.LoadBaseline, benchMeasure); cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("benchmark gate, %s: %v, want exit %d", name, err, cli.ExitUsage)
		}
	}
}

// On a usable baseline the gate measures, writes the record and reports
// drift: a run equal to the baseline passes, one changed cycle exits 1.
func TestGateRecordsAndReportsDrift(t *testing.T) {
	base, err := calib.LoadScoreboard("../../BENCH_accuracy.json")
	if err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(t.TempDir(), "record.json")
	g := gate{record: record, compare: "../../BENCH_accuracy.json", tol: 1, name: "accuracy"}
	same := func() (*calib.Scoreboard, error) { return calib.LoadScoreboard(g.compare) }
	if err := runGate(g, base, calib.LoadScoreboard, same); err != nil {
		t.Fatalf("baseline against itself: %v", err)
	}
	got, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(g.compare)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("record of the committed scoreboard differs from BENCH_accuracy.json")
	}

	g.record = ""
	drifted := func() (*calib.Scoreboard, error) {
		sb, err := calib.LoadScoreboard(g.compare)
		if err == nil {
			sb.Rows[3].Points[2].Est++
		}
		return sb, err
	}
	err = runGate(g, base, calib.LoadScoreboard, drifted)
	if cli.ExitCode(err) != cli.ExitRuntime || !strings.Contains(err.Error(), "1 accuracy regression(s)") {
		t.Fatalf("one changed cycle: %v, want one regression (exit %d)", err, cli.ExitRuntime)
	}
}

// With record "-" stdout carries the record alone, byte for byte what a
// record file holds; the table and the status lines go to stderr.
func TestGateRecordAloneOnStdout(t *testing.T) {
	const path = "../../BENCH_accuracy.json"
	base, err := calib.LoadScoreboard(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := capture(t, func() error {
		g := gate{record: "-", compare: path, tol: 1, name: "accuracy"}
		return runGate(g, base, calib.LoadScoreboard, func() (*calib.Scoreboard, error) { return calib.LoadScoreboard(path) })
	})
	if stdout != string(want) {
		t.Errorf("stdout is not the record alone:\n%s", stdout)
	}
	if !strings.HasPrefix(stderr, "accuracy scoreboard") || !strings.Contains(stderr, "within tolerance") {
		t.Errorf("stderr lacks the table or the status line:\n%s", stderr)
	}
}

// capture runs fn with stdout and stderr sent to files and returns what
// each received; fn failing fails the test.
func capture(t *testing.T, fn func() error) (stdout, stderr string) {
	t.Helper()
	files := make([]*os.File, 2)
	for i := range files {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	err := fn()
	os.Stdout, os.Stderr = oldOut, oldErr
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 2)
	for i, f := range files {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out[0], out[1]
}

// An unknown table or ablation is a usage error, reported before the
// setup calibrates anything.
func TestRunRejectsUnknownTableAndAblation(t *testing.T) {
	for _, tc := range []struct {
		table    int
		ablation string
	}{{7, ""}, {-1, ""}, {0, "nosuch"}} {
		spec := jobspec.DefaultTLM()
		spec.Calibrate = true
		err := run(&spec, tc.table, tc.ablation, false, true, false, 1, gate{}, gate{})
		if cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("-table %d -ablation %q: %v, want exit %d", tc.table, tc.ablation, err, cli.ExitUsage)
		}
	}
}

// -timeout is one deadline for the whole run: it stops the board runs
// behind Table 2 and behind the accuracy scoreboard, whose record is then
// not written.
func TestTimeoutBoundsWholeRun(t *testing.T) {
	record := filepath.Join(t.TempDir(), "accuracy.json")
	for _, tc := range []struct {
		name   string
		frames int
		table  int
		acc    gate
	}{
		{"-frames 20 -table 2", 20, 2, gate{}},
		{"-accuracy FILE", 2, 0, gate{record: record, name: "accuracy"}},
	} {
		spec := jobspec.DefaultTLM()
		spec.Calibrate = true
		spec.Frames = tc.frames
		spec.Timeout = jobspec.Duration(300 * time.Millisecond)
		err := run(&spec, tc.table, "", false, true, false, 1, gate{}, tc.acc)
		if !errors.Is(err, diag.ErrDeadline) || cli.ExitCode(err) != cli.ExitRuntime {
			t.Errorf("%s -timeout 300ms: %v, want %v (exit %d)", tc.name, err, diag.ErrDeadline, cli.ExitRuntime)
		}
	}
	if _, err := os.Stat(record); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a scoreboard past its deadline was written (stat: %v)", err)
	}
}
