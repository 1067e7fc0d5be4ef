package experiments

import (
	"context"
	"fmt"
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
// machines.
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
	GenNs          int64   `json:"gen_ns"`      // ahead-of-time generated engine
	TreeAllocs     uint64  `json:"tree_allocs"` // min allocations of one run
	CompiledAllocs uint64  `json:"compiled_allocs"`
	GenAllocs      uint64  `json:"gen_allocs"`
	Speedup        float64 `json:"speedup"`             // TreeNs / CompiledNs
	SpeedupVsComp  float64 `json:"speedup_vs_compiled"` // CompiledNs / GenNs
	AllocRatio     float64 `json:"alloc_ratio"`         // TreeAllocs / max(CompiledAllocs,1)
}

// perfBenchCacheCfg matches the Table 1 evaluation configuration.
var perfBenchCacheCfg = pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}

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
	for _, design := range apps.JPEGDesignNames {
		d, err := apps.JPEGDesign(design, jpeg, s.MB, perfBenchCacheCfg)
		if err != nil {
			return nil, err
		}
		d.Name = "jpeg-" + design // distinct from the MP3 rows
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
	for _, d := range apps.JPEGDesignNames {
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

// LoadBaseline reads a committed benchmark baseline (BENCH_tlm.json)
// through cli.ReadBaseline; only the benchmarked designs are known.
func LoadBaseline(path string) (*PerfBench, error) {
	var b PerfBench
	if err := cli.ReadBaseline(path, &b, perfBenchKnownDesigns()); err != nil {
		return nil, err
	}
	return &b, nil
}

// Workload names the benchmarked input: MP3 frames, which scale JPEG too.
func (b *PerfBench) Workload() string { return fmt.Sprintf("%d frames", b.Frames) }

// RowKeys lists the rows' designs. A row whose timings or speedups are
// not positive is unusable: a negative measurement, or a row without one
// of the three engines.
func (b *PerfBench) RowKeys() ([]string, error) {
	keys := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		if r.TreeNs <= 0 || r.CompiledNs <= 0 || r.GenNs <= 0 || r.Speedup <= 0 || r.SpeedupVsComp <= 0 {
			return nil, fmt.Errorf("row %q: timings and speedups must be positive", r.Design)
		}
		keys[i] = r.Design
	}
	return keys, nil
}

// Compare checks a fresh measurement against a committed baseline of the
// same workload and returns human-readable violations (empty means the
// run is acceptable). Only machine-independent quantities are compared:
// simulated cycles and end time must match exactly, the speedup ratios
// must not fall below baseline*(1-tol), and allocations must not rise
// above baseline*(1+tol).
func (b *PerfBench) Compare(baseline *PerfBench, tol float64) []string {
	var violations []string
	byDesign := make(map[string]PerfBenchRow, len(b.Rows))
	for _, r := range b.Rows {
		byDesign[r.Design] = r
	}
	for _, base := range baseline.Rows {
		design := base.Design
		cur, ok := byDesign[design]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current measurement", design))
			continue
		}
		if cur.SimCycles != base.SimCycles || cur.EndPs != base.EndPs {
			violations = append(violations, fmt.Sprintf(
				"%s: simulated outputs changed: %d cycles end %d ps, baseline %d cycles end %d ps (determinism or timing-model regression)",
				design, cur.SimCycles, cur.EndPs, base.SimCycles, base.EndPs))
		}
		speedup := func(tiers string, cur, base float64) {
			if floor := base * (1 - tol); cur < floor {
				violations = append(violations, fmt.Sprintf("%s: %s speedup %.2fx below %.2fx (baseline %.2fx - %.0f%% tolerance)",
					design, tiers, cur, floor, base, 100*tol))
			}
		}
		allocs := func(engine string, cur, base uint64) {
			if ceil := float64(base) * (1 + tol); float64(cur) > ceil {
				violations = append(violations, fmt.Sprintf("%s: %s-engine allocations %d above %.0f (baseline %d + %.0f%% tolerance)",
					design, engine, cur, ceil, base, 100*tol))
			}
		}
		speedup("compiled/tree", cur.Speedup, base.Speedup)
		speedup("gen/compiled", cur.SpeedupVsComp, base.SpeedupVsComp)
		allocs("gen", cur.GenAllocs, base.GenAllocs)
		allocs("compiled", cur.CompiledAllocs, base.CompiledAllocs)
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
