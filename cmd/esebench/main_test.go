package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/calib"
	"ese/internal/cli"
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
