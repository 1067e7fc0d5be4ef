package verify

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// ExampleDesigns builds every example design the repository evaluates —
// the four MP3 mappings (SW, SW+1, SW+2, SW+4) and the two JPEG mappings
// (SW, SW+DCT) — on the MicroBlaze-like model with the standard 8k/4k
// cache configuration. frames sizes the MP3 workload.
func ExampleDesigns(frames int) ([]*platform.Design, error) {
	mb := pum.MicroBlaze()
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	mp3 := apps.MP3Config{Frames: frames, Seed: apps.DefaultMP3.Seed}
	jpeg := apps.JPEGConfig{Blocks: 8, Seed: apps.DefaultJPEG.Seed}
	var out []*platform.Design
	for _, name := range apps.MP3DesignNames {
		d, err := apps.MP3Design(name, mp3, mb, cc)
		if err != nil {
			return nil, fmt.Errorf("verify: building MP3 %s: %w", name, err)
		}
		out = append(out, d)
	}
	for _, name := range []string{"SW", "SW+DCT"} {
		d, err := apps.JPEGDesign(name, jpeg, mb, cc)
		if err != nil {
			return nil, fmt.Errorf("verify: building JPEG %s: %w", name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// mismatch records one differential-oracle disagreement as an Error
// diagnostic positioned at the design.
func mismatch(ds []diag.Diagnostic, pos, format string, args ...any) []diag.Diagnostic {
	return append(ds, diag.Diagnostic{
		Severity: diag.Error, Stage: diag.StageVerify, Pos: pos,
		Msg: fmt.Sprintf(format, args...),
	})
}

// DiffDesign runs one design's timed TLM, with the given per-PE delay
// tables (tlm.Options.Delays), under the tree-walking and the compiled
// execution engines — and under the ahead-of-time generated engine when
// one is registered for the program — its untimed TLM on the tree-walking
// engine, and its cycle-accurate board simulation (processor PEs execute
// ISS-generated ISA code there), and cross-checks them:
//
//   - tree vs compiled (and tree vs gen) must agree exactly on every
//     observable: per-PE Out streams, total dynamic steps, per-PE cycle
//     totals, simulated end time and bus words;
//   - the untimed TLM's per-PE Out streams must match the timed TLM's;
//   - the board's per-PE Out streams must match the TLM's bit for bit
//     (the functional differential against the reference ISA path);
//   - per-PE board cycle totals must be positive wherever the TLM charged
//     cycles — the estimate and the measurement may legitimately diverge
//     by the paper's error margin, but a zero or missing measurement
//     means a path was silently skipped.
//
// Every disagreement is returned as an Error diagnostic.
func DiffDesign(d *platform.Design, delays map[string][]float64) []diag.Diagnostic {
	var ds []diag.Diagnostic
	run := func(kind interp.EngineKind) (*tlm.Result, error) {
		return tlm.Run(d, tlm.Options{
			Timed:    true,
			WaitMode: tlm.WaitAtTransactions,
			Delays:   delays,
			Engine:   kind,
		})
	}
	rt, err := run(interp.EngineTree)
	if err != nil {
		return mismatch(ds, d.Name, "tree engine failed: %v", err)
	}
	compare := func(tier string, rc *tlm.Result) {
		for _, pe := range d.PEs {
			if !slices.Equal(rt.OutByPE[pe.Name], rc.OutByPE[pe.Name]) {
				ds = mismatch(ds, d.Name+"/"+pe.Name, "Out stream diverges between tree and %s engines", tier)
			}
		}
		if rt.Steps != rc.Steps {
			ds = mismatch(ds, d.Name, "Steps diverge: tree %d, %s %d", rt.Steps, tier, rc.Steps)
		}
		for _, pe := range d.PEs {
			if rt.CyclesByPE[pe.Name] != rc.CyclesByPE[pe.Name] {
				ds = mismatch(ds, d.Name+"/"+pe.Name, "cycle totals diverge: tree %d, %s %d",
					rt.CyclesByPE[pe.Name], tier, rc.CyclesByPE[pe.Name])
			}
		}
		if rt.EndPs != rc.EndPs {
			ds = mismatch(ds, d.Name, "EndPs diverges: tree %d, %s %d", rt.EndPs, tier, rc.EndPs)
		}
		if rt.BusWords != rc.BusWords {
			ds = mismatch(ds, d.Name, "BusWords diverge: tree %d, %s %d", rt.BusWords, tier, rc.BusWords)
		}
	}
	ru, err := tlm.Run(d, tlm.Options{Engine: interp.EngineTree})
	if err != nil {
		return mismatch(ds, d.Name, "untimed TLM failed: %v", err)
	}
	for _, pe := range d.PEs {
		if !slices.Equal(rt.OutByPE[pe.Name], ru.OutByPE[pe.Name]) {
			ds = mismatch(ds, d.Name+"/"+pe.Name, "Out stream diverges between the timed and the untimed TLM")
		}
	}
	rc, err := run(interp.EngineCompiled)
	if err != nil {
		return mismatch(ds, d.Name, "compiled engine failed: %v", err)
	}
	compare("compiled", rc)
	if interp.GeneratedFor(d.Program) != nil {
		rg, err := run(interp.EngineGen)
		if err != nil {
			return mismatch(ds, d.Name, "generated engine failed: %v", err)
		}
		compare("gen", rg)
	}
	board, err := rtl.RunBoard(d, 0)
	if err != nil {
		return mismatch(ds, d.Name, "board simulation failed: %v", err)
	}
	for _, pe := range d.PEs {
		br := board.PEs[pe.Name]
		if br == nil {
			ds = mismatch(ds, d.Name+"/"+pe.Name, "board result has no entry for this PE")
			continue
		}
		if !slices.Equal(rt.OutByPE[pe.Name], br.Out) {
			ds = mismatch(ds, d.Name+"/"+pe.Name,
				"Out stream diverges between the TLM and the ISS board (%d vs %d samples)",
				len(rt.OutByPE[pe.Name]), len(br.Out))
		}
		if rt.CyclesByPE[pe.Name] > 0 && br.Cycles == 0 {
			ds = mismatch(ds, d.Name+"/"+pe.Name,
				"TLM charged %d cycles but the board measured none", rt.CyclesByPE[pe.Name])
		}
	}
	return ds
}

// CheckEstimatorInvariants checks the metamorphic invariants of the
// two-phase estimator (Algorithms 1+2) on every block of the program
// against the model:
//
//   - validity: every component is finite, the statistical penalties are
//     non-negative, and Total ≥ Sched;
//   - resource monotonicity: adding one instance of any functional unit
//     never increases the Algorithm 1 schedule;
//   - delay scaling: multiplying every datapath stage latency by k keeps
//     the schedule within [Sched, k·Sched] — the sound envelope of a
//     uniform slowdown (exact proportionality is broken only by issue
//     and pipeline-register cycles, which do not scale);
//   - perfect cache: hit rates of 1 with zero hit delays produce exactly
//     zero IDelay and DDelay.
//
// Each violation is one Error diagnostic positioned at "func/bbN".
func CheckEstimatorInvariants(prog *cdfg.Program, p *pum.PUM) []diag.Diagnostic {
	var ds []diag.Diagnostic
	const k = 3
	scaled := p.Clone()
	for cls, info := range scaled.Ops {
		for si := range info.Stages {
			info.Stages[si].Cycles *= k
		}
		scaled.Ops[cls] = info
	}
	perfect := p.Clone()
	perfect.Mem.Current = pum.MemStats{IHitRate: 1, DHitRate: 1}
	augmented := make([]*pum.PUM, len(p.FUs))
	for fi := range p.FUs {
		q := p.Clone()
		q.FUs[fi].Quantity++
		augmented[fi] = q
	}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			pos := fmt.Sprintf("%s/%s/bb%d", p.Name, fn.Name, b.ID)
			base := core.BlockDelay(b, p, core.FullDetail)
			for _, v := range []struct {
				name string
				val  float64
			}{
				{"Total", base.Total}, {"BranchPen", base.BranchPen},
				{"IDelay", base.IDelay}, {"DDelay", base.DDelay},
			} {
				if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
					ds = mismatch(ds, pos, "estimate component %s is %v", v.name, v.val)
				}
				if v.val < 0 {
					ds = mismatch(ds, pos, "estimate component %s is negative: %v", v.name, v.val)
				}
			}
			if base.Total < float64(base.Sched) {
				ds = mismatch(ds, pos, "Total %v below Sched %d", base.Total, base.Sched)
			}
			for fi, q := range augmented {
				if e := core.BlockDelay(b, q, core.FullDetail); e.Sched > base.Sched {
					ds = mismatch(ds, pos, "adding an instance of FU %q raised Sched %d -> %d",
						p.FUs[fi].ID, base.Sched, e.Sched)
				}
			}
			if e := core.BlockDelay(b, scaled, core.FullDetail); e.Sched < base.Sched || e.Sched > k*base.Sched {
				ds = mismatch(ds, pos, "scaling datapath delays x%d moved Sched %d outside [%d,%d]: %d",
					k, base.Sched, base.Sched, k*base.Sched, e.Sched)
			}
			if e := core.BlockDelay(b, perfect, core.FullDetail); e.IDelay != 0 || e.DDelay != 0 {
				ds = mismatch(ds, pos, "perfect cache left memory delay (i=%v d=%v)", e.IDelay, e.DDelay)
			}
		}
	}
	return ds
}

// Suite runs the whole validation harness — static verification and PUM
// lint of every example design, the tree/compiled/board differential, the
// metamorphic estimator invariants, and the seeded-mutation corpus — and
// writes a one-line summary per step to w. It returns the first hard
// failure (nil when everything holds). This is what `esebench -validate`
// and the CI validate job run.
func Suite(w io.Writer, frames int) error {
	if frames <= 0 {
		frames = 1
	}
	designs, err := ExampleDesigns(frames)
	if err != nil {
		return err
	}
	fail := 0
	report := func(ds []diag.Diagnostic, what, name string) {
		bad := 0
		for _, d := range ds {
			if d.Severity >= diag.Warning {
				bad++
				fmt.Fprintf(w, "  %s\n", d)
			}
		}
		if bad > 0 {
			fail += bad
			fmt.Fprintf(w, "FAIL %-12s %-16s %d finding(s)\n", what, name, bad)
			return
		}
		fmt.Fprintf(w, "ok   %-12s %s\n", what, name)
	}
	for _, d := range designs {
		report(Design(d), "static", d.Name)
	}
	for _, d := range designs {
		// The paper's full-detail estimates, built once per design and
		// shared by every engine tier of the differential.
		delays := make(map[string][]float64, len(d.PEs))
		for _, pe := range d.PEs {
			t, err := core.EstimateBlocksCtx(context.Background(), d.Program, pe.PUM, core.FullDetail, core.EstOptions{})
			if err != nil {
				return fmt.Errorf("verify: estimating %s/%s: %w", d.Name, pe.Name, err)
			}
			delays[pe.Name] = t.Totals()
		}
		report(DiffDesign(d, delays), "differential", d.Name)
	}
	for _, d := range designs {
		var ds []diag.Diagnostic
		for _, pe := range d.PEs {
			ds = append(ds, CheckEstimatorInvariants(d.Program, pe.PUM)...)
		}
		report(ds, "metamorphic", d.Name)
	}
	results, err := RunCorpus()
	if err != nil {
		return err
	}
	uncaught := 0
	for _, r := range results {
		if r.CaughtBy == "" {
			uncaught++
			fmt.Fprintf(w, "FAIL mutation     %-28s escaped every oracle\n", r.Name)
		} else {
			fmt.Fprintf(w, "ok   mutation     %-28s caught by %s\n", r.Name, r.CaughtBy)
		}
	}
	fail += uncaught
	if fail > 0 {
		return fmt.Errorf("verify: validation suite found %d failure(s)", fail)
	}
	fmt.Fprintf(w, "validation suite: %d designs, %d seeded mutations, all checks passed\n",
		len(designs), len(results))
	return nil
}
