package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/cli"
)

// The engine benchmark's own baseline checks: its design set and its row
// check. A row without the gen tier's measurements is as unusable as one
// with a negative measurement. Every rejection is an input error (exit 2),
// never a false "benchmark regression" (exit 1). The shared cases (a
// missing file, truncated JSON, no rows, a duplicate row) are
// cli.ReadBaseline's.
func TestLoadBaselineRejectsCorruptBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content, wantErr string
	}{
		{"wrong design set", `{"frames":2,"rows":[
			{"design":"RISCV+VEC","tree_ns":50,"compiled_ns":10,"gen_ns":2,"speedup":5.0,"speedup_vs_compiled":5.0}]}`,
			`unknown row "RISCV+VEC"`},
		{"negative measurement", `{"frames":2,"rows":[
			{"design":"SW","tree_ns":50,"compiled_ns":-10,"gen_ns":2,"speedup":5.0,"speedup_vs_compiled":5.0}]}`,
			"must be positive"},
		{"no gen measurements", `{"frames":2,"rows":[
			{"design":"SW","tree_ns":50,"compiled_ns":10,"speedup":5.0}]}`,
			"must be positive"},
	}
	for _, tc := range cases {
		_, err := LoadBaseline(write(tc.name+".json", tc.content))
		if err == nil {
			t.Fatalf("%s: baseline accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if code := cli.ExitCode(err); code != cli.ExitUsage {
			t.Fatalf("%s: exit code %d, want %d (input error)", tc.name, code, cli.ExitUsage)
		}
	}

	// The committed baseline, JPEG rows included, is usable, and a run
	// of another frame count is not its workload.
	b, err := LoadBaseline("../../BENCH_tlm.json")
	if err != nil {
		t.Fatalf("committed baseline rejected: %v", err)
	}
	if len(b.Rows) != 6 || b.Rows[5].Design != "jpeg-SW+DCT" {
		t.Fatalf("committed baseline decoded wrong: %+v", b.Rows)
	}
	if err := cli.SameWorkload("BENCH_tlm.json", b, (&PerfBench{Frames: b.Frames}).Workload()); err != nil {
		t.Fatalf("same frames rejected: %v", err)
	}
	err = cli.SameWorkload("BENCH_tlm.json", b, (&PerfBench{Frames: b.Frames - 1}).Workload())
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Fatalf("other frames: exit code %d (%v), want %d", code, err, cli.ExitUsage)
	}
}

// Every comparison runs on every row: exact cycles and end time, both
// speedup floors and both allocation ceilings. A regression is a
// violation naming the design, which the caller reports as exit 1.
func TestCompareClassification(t *testing.T) {
	row := PerfBenchRow{
		Design: "SW", SimCycles: 100, EndPs: 1000,
		CompiledAllocs: 100, GenAllocs: 50, Speedup: 5.0, SpeedupVsComp: 4.0,
	}
	base := &PerfBench{Frames: 2, Rows: []PerfBenchRow{row}}
	ok := row
	ok.Speedup, ok.SpeedupVsComp, ok.CompiledAllocs, ok.GenAllocs = 4.9, 3.9, 101, 51
	if v := (&PerfBench{Frames: 2, Rows: []PerfBenchRow{ok}}).Compare(base, 0.30); len(v) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", v)
	}
	for _, tc := range []struct {
		name, want string
		mut        func(*PerfBenchRow)
	}{
		{"cycles", "simulated outputs changed", func(r *PerfBenchRow) { r.SimCycles++ }},
		{"end time", "simulated outputs changed", func(r *PerfBenchRow) { r.EndPs++ }},
		{"compiled/tree", "compiled/tree speedup", func(r *PerfBenchRow) { r.Speedup = 2.0 }},
		{"gen/compiled", "gen/compiled speedup", func(r *PerfBenchRow) { r.SpeedupVsComp = 2.0 }},
		{"compiled allocs", "compiled-engine allocations", func(r *PerfBenchRow) { r.CompiledAllocs = 200 }},
		{"gen allocs", "gen-engine allocations", func(r *PerfBenchRow) { r.GenAllocs = 100 }},
	} {
		cur := row
		tc.mut(&cur)
		v := (&PerfBench{Frames: 2, Rows: []PerfBenchRow{cur}}).Compare(base, 0.30)
		if len(v) != 1 || !strings.HasPrefix(v[0], "SW: "+tc.want) {
			t.Errorf("%s: violations = %v, want one %q", tc.name, v, tc.want)
		}
	}
	// A current run missing a baselined design is a violation, not a parse
	// problem: the baseline was valid, the measurement fell short.
	missing := &PerfBench{Frames: 2}
	if v := missing.Compare(base, 0.30); len(v) != 1 {
		t.Fatalf("missing-design run not flagged: %v", v)
	}
}
