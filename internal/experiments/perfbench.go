package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ese/internal/apps"
	"ese/internal/cli"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// PerfBench is the machine-readable performance trajectory of the execution
// engines: per design, the deterministic simulation outputs (cycles, end
// time) plus the measured wall-clock and allocation cost of one timed TLM
// run under the tree-walking, compiled and ahead-of-time generated engines.
// Engines alternate within one process and the minimum over the repetitions
// is recorded, so all sides see the same machine conditions.
//
// The committed baseline (BENCH_tlm.json) is compared against a fresh
// measurement by Compare: simulated cycles must match exactly (the
// simulation is deterministic), and the speedups — machine-independent
// ratios — must not regress beyond the tolerance. Raw nanosecond fields
// are recorded for trend inspection only; they are never compared across
// machines. Baselines recorded before the generated tier existed simply
// lack the gen fields; those comparisons are skipped, not rejected.
type PerfBench struct {
	Frames int            `json:"frames"`
	Reps   int            `json:"reps"`
	Rows   []PerfBenchRow `json:"rows"`
}

// PerfBenchRow is one design's measurement.
type PerfBenchRow struct {
	Design         string  `json:"design"`
	SimCycles      uint64  `json:"sim_cycles"` // sum of CyclesByPE (deterministic)
	EndPs          uint64  `json:"end_ps"`     // simulated end time (deterministic)
	TreeNs         int64   `json:"tree_ns"`    // min wall-clock of one run
	CompiledNs     int64   `json:"compiled_ns"`
	GenNs          int64   `json:"gen_ns,omitempty"` // ahead-of-time generated engine
	TreeAllocs     uint64  `json:"tree_allocs"`      // min allocations of one run
	CompiledAllocs uint64  `json:"compiled_allocs"`
	GenAllocs      uint64  `json:"gen_allocs,omitempty"`
	Speedup        float64 `json:"speedup"`                       // TreeNs / CompiledNs
	SpeedupVsComp  float64 `json:"speedup_vs_compiled,omitempty"` // CompiledNs / GenNs
	AllocRatio     float64 `json:"alloc_ratio"`                   // TreeAllocs / max(CompiledAllocs,1)
}

// perfBenchCacheCfg matches the Table 1 evaluation configuration.
var perfBenchCacheCfg = pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}

// perfBenchJPEGDesigns are the JPEG rows appended after the MP3 designs;
// their row names carry the "jpeg-" prefix to stay distinct.
var perfBenchJPEGDesigns = apps.JPEGDesignNames

// perfBenchDesigns builds the benchmarked design list: the four MP3
// mappings followed by the two JPEG mappings, with the JPEG workload
// scaled by the same frames knob.
func perfBenchDesigns(s *Setup) ([]*platform.Design, error) {
	var out []*platform.Design
	for _, design := range apps.MP3DesignNames {
		d, err := apps.MP3Design(design, s.Eval, s.MB, perfBenchCacheCfg)
		if err != nil {
			return nil, err
		}
		d.Name = design // row key: plain design name, cache cfg is fixed
		out = append(out, d)
	}
	jpeg := apps.JPEGConfig{Blocks: 8 * s.Eval.Frames, Seed: apps.DefaultJPEG.Seed}
	for _, design := range perfBenchJPEGDesigns {
		d, err := apps.JPEGDesign(design, jpeg, s.MB, perfBenchCacheCfg)
		if err != nil {
			return nil, err
		}
		d.Name = "jpeg-" + design
		out = append(out, d)
	}
	return out, nil
}

// perfBenchKnownDesigns is the row-name whitelist LoadBaseline accepts.
func perfBenchKnownDesigns() map[string]bool {
	known := make(map[string]bool)
	for _, d := range apps.MP3DesignNames {
		known[d] = true
	}
	for _, d := range perfBenchJPEGDesigns {
		known["jpeg-"+d] = true
	}
	return known
}

// RunPerfBench measures every benchmark design's timed TLM under the
// three engines. Delays are annotated once per design through the
// setup's pipeline outside the timed region, so the measurement isolates
// simulation (the quantity the engine choice affects).
func RunPerfBench(s *Setup, reps int) (*PerfBench, error) {
	if reps < 1 {
		reps = 1
	}
	out := &PerfBench{Frames: s.Eval.Frames, Reps: reps}
	designs, err := perfBenchDesigns(s)
	if err != nil {
		return nil, err
	}
	for _, d := range designs {
		dm, _, err := s.Pipe.DelaysCtx(context.Background(), d, s.Pipe.Detail())
		if err != nil {
			return nil, fmt.Errorf("perfbench %s: %w", d.Name, err)
		}
		row := PerfBenchRow{Design: d.Name}
		runOnce := func(kind interp.EngineKind) (time.Duration, uint64, *tlm.Result, error) {
			opts := tlm.Options{
				Timed:    true,
				WaitMode: tlm.WaitAtTransactions,
				Delays:   dm,
				Engine:   kind,
			}
			// Collect before timing so one engine's garbage is never paid
			// for during another engine's timed region.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := tlm.Run(d, opts)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			return wall, after.Mallocs - before.Mallocs, res, err
		}
		type sample struct {
			ns     *int64
			allocs *uint64
			kind   interp.EngineKind
		}
		samples := []sample{
			{&row.TreeNs, &row.TreeAllocs, interp.EngineTree},
			{&row.CompiledNs, &row.CompiledAllocs, interp.EngineCompiled},
			{&row.GenNs, &row.GenAllocs, interp.EngineGen},
		}
		for rep := 0; rep < reps; rep++ {
			// Alternate engines within each repetition so every side samples
			// the same machine conditions.
			var refCycles uint64
			var refEnd uint64
			for i, sm := range samples {
				wall, allocs, res, err := runOnce(sm.kind)
				if err != nil {
					return nil, fmt.Errorf("perfbench %s (%v): %w", d.Name, sm.kind, err)
				}
				var cycles uint64
				for _, c := range res.CyclesByPE {
					cycles += c
				}
				if i == 0 {
					refCycles, refEnd = cycles, uint64(res.EndPs)
				} else if cycles != refCycles || uint64(res.EndPs) != refEnd {
					return nil, fmt.Errorf("perfbench %s: engines diverge (tree %d cycles end %d, %v %d cycles end %d)",
						d.Name, refCycles, refEnd, sm.kind, cycles, res.EndPs)
				}
				if rep == 0 {
					*sm.ns, *sm.allocs = wall.Nanoseconds(), allocs
					continue
				}
				if n := wall.Nanoseconds(); n < *sm.ns {
					*sm.ns = n
				}
				if allocs < *sm.allocs {
					*sm.allocs = allocs
				}
			}
			if rep == 0 {
				row.SimCycles, row.EndPs = refCycles, refEnd
			}
		}
		if row.CompiledNs > 0 {
			row.Speedup = float64(row.TreeNs) / float64(row.CompiledNs)
		}
		if row.GenNs > 0 {
			row.SpeedupVsComp = float64(row.CompiledNs) / float64(row.GenNs)
		}
		ca := row.CompiledAllocs
		if ca == 0 {
			ca = 1
		}
		row.AllocRatio = float64(row.TreeAllocs) / float64(ca)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// LoadBaseline reads and validates a committed benchmark baseline
// (BENCH_tlm.json). Every way the baseline can be unusable — missing
// file, truncated or malformed JSON, no rows, rows for designs this
// build does not know (a baseline from a different design set) — is an
// input error (exit 2 / HTTP 400), not a runtime failure: the
// measurement itself never ran, so exit 1 would misreport a benchmark
// regression. A baseline recorded before the generated tier (no gen
// fields) or before the JPEG rows is still valid.
func LoadBaseline(path string) (*PerfBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, cli.Input(fmt.Errorf("bench baseline: %w", err))
	}
	var b PerfBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, cli.Input(fmt.Errorf("bench baseline %s: malformed or truncated JSON: %w", path, err))
	}
	if len(b.Rows) == 0 {
		return nil, cli.Input(fmt.Errorf("bench baseline %s: no measurement rows", path))
	}
	known := perfBenchKnownDesigns()
	seen := make(map[string]bool, len(b.Rows))
	for _, r := range b.Rows {
		if !known[r.Design] {
			return nil, cli.Input(fmt.Errorf(
				"bench baseline %s: unknown design %q — baseline from a different design set?", path, r.Design))
		}
		if seen[r.Design] {
			return nil, cli.Input(fmt.Errorf("bench baseline %s: duplicate design %q", path, r.Design))
		}
		seen[r.Design] = true
		if r.Speedup < 0 || r.TreeNs < 0 || r.CompiledNs < 0 || r.GenNs < 0 {
			return nil, cli.Input(fmt.Errorf("bench baseline %s: design %q has negative measurements", path, r.Design))
		}
	}
	return &b, nil
}

// Compare checks a fresh measurement against a committed baseline and
// returns human-readable violations (empty means the run is acceptable).
// Only machine-independent quantities are compared: simulated cycles and
// end time must match exactly when the workloads match, and the speedup
// ratios must not fall below baseline*(1-tol). Gen-tier comparisons run
// only when the baseline has gen measurements, so pre-gen baselines stay
// usable.
func (b *PerfBench) Compare(baseline *PerfBench, tol float64) []string {
	var violations []string
	byDesign := make(map[string]PerfBenchRow, len(b.Rows))
	for _, r := range b.Rows {
		byDesign[r.Design] = r
	}
	sameWorkload := b.Frames == baseline.Frames
	for _, base := range baseline.Rows {
		cur, ok := byDesign[base.Design]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: missing from current measurement", base.Design))
			continue
		}
		if sameWorkload && (cur.SimCycles != base.SimCycles || cur.EndPs != base.EndPs) {
			violations = append(violations, fmt.Sprintf(
				"%s: simulated outputs changed: %d cycles end %d ps, baseline %d cycles end %d ps (determinism or timing-model regression)",
				base.Design, cur.SimCycles, cur.EndPs, base.SimCycles, base.EndPs))
		}
		floor := base.Speedup * (1 - tol)
		if cur.Speedup < floor {
			violations = append(violations, fmt.Sprintf(
				"%s: compiled/tree speedup %.2fx below %.2fx (baseline %.2fx - %.0f%% tolerance)",
				base.Design, cur.Speedup, floor, base.Speedup, 100*tol))
		}
		if base.GenNs > 0 {
			genFloor := base.SpeedupVsComp * (1 - tol)
			if cur.SpeedupVsComp < genFloor {
				violations = append(violations, fmt.Sprintf(
					"%s: gen/compiled speedup %.2fx below %.2fx (baseline %.2fx - %.0f%% tolerance)",
					base.Design, cur.SpeedupVsComp, genFloor, base.SpeedupVsComp, 100*tol))
			}
			if base.GenAllocs > 0 {
				ceil := float64(base.GenAllocs) * (1 + tol)
				if float64(cur.GenAllocs) > ceil {
					violations = append(violations, fmt.Sprintf(
						"%s: gen-engine allocations %d above %.0f (baseline %d + %.0f%% tolerance)",
						base.Design, cur.GenAllocs, ceil, base.GenAllocs, 100*tol))
				}
			}
		}
		if base.CompiledAllocs > 0 {
			ceil := float64(base.CompiledAllocs) * (1 + tol)
			if float64(cur.CompiledAllocs) > ceil {
				violations = append(violations, fmt.Sprintf(
					"%s: compiled-engine allocations %d above %.0f (baseline %d + %.0f%% tolerance)",
					base.Design, cur.CompiledAllocs, ceil, base.CompiledAllocs, 100*tol))
			}
		}
	}
	return violations
}

// String renders the trajectory as an aligned table.
func (b *PerfBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine benchmark (timed TLM, %d frames, min of %d reps)\n", b.Frames, b.Reps)
	fmt.Fprintf(&sb, "%-10s %14s %11s %11s %11s %9s %9s %12s %12s %12s\n",
		"design", "sim cycles", "tree ms", "comp ms", "gen ms", "c/t", "g/c", "tree allocs", "comp allocs", "gen allocs")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-10s %14d %11.3f %11.3f %11.3f %8.2fx %8.2fx %12d %12d %12d\n",
			r.Design, r.SimCycles,
			float64(r.TreeNs)/1e6, float64(r.CompiledNs)/1e6, float64(r.GenNs)/1e6,
			r.Speedup, r.SpeedupVsComp,
			r.TreeAllocs, r.CompiledAllocs, r.GenAllocs)
	}
	return sb.String()
}
