// Package calib closes the loop between the statistical PUM and the
// cycle-accurate board model: it calibrates the statistical memory and
// branch models from one or more training programs, each run once on the
// board's processor model for every cache configuration (rtl.Measure), with
// per-config, per-program provenance recorded in the returned PUM. It is
// the only code that builds a calibrated model. It then scores the
// calibrated estimator against the board across the full application ×
// design × cache-configuration matrix, reporting MAPE and Pearson r per
// design. The board runs once per design for every configuration it is
// scored at (rtl.RunBoards: one functional pass, one replay per
// configuration), and a scoreboard measures each training program once
// for every training set that includes it.
//
// A scoreboard (RunScoreboard) runs in two phases on a pool of
// runtime.GOMAXPROCS(0) workers, the size dse.Run and the annotation
// pool use. Phase one runs the independent functional passes, every
// training run and every design's board pass, at once, into one workload
// Memo, the memo type the jobspec Runner also owns. Board references
// depend only on datasheet constants, never on calibrated statistics, so
// they exist before any model. Phase two scores the rows against the
// memo, each into its slot in matrix order: a workload's first row records
// its timed TLM, and every estimate of the workload replays that
// recording. Neither the scoreboard, nor a failure's error, nor the
// estimation cache's counters depend on the number of workers;
// GOMAXPROCS=1 is the serial run.
//
// The paper's "~6–9% error" headline becomes a tracked number: the
// scoreboard serializes to BENCH_accuracy.json, and CI gates it through
// internal/cli's baseline contract, as it does BENCH_tlm.json.
package calib

import (
	"context"
	"fmt"

	"ese/internal/cdfg"
	"ese/internal/pum"
	"ese/internal/rtl"
)

// Training is one program the statistical models are calibrated on. Name
// labels the provenance (e.g. "mp3"); Entry is the self-contained process
// entry, typically "main" of a single-PE mapping of the application on a
// reduced input.
type Training struct {
	Name  string
	Prog  *cdfg.Program
	Entry string
}

// Calibrate is the only code that builds calibrated models: it measures each
// training program with rtl.Measure (one run per program for every cached
// configuration) and merges the reports into a copy of the base PUM by
// unweighted averaging — per configuration for the memory table, across
// programs for the branch misprediction ratio. The returned PUM carries one
// provenance entry per (configuration, program) pair, labeled with the
// training name; the per-program reports are returned alongside for
// inspection. limit bounds each training run's dynamic steps (0 = none);
// Calibrate runs under no deadline (see CalibrateCtx).
func Calibrate(base *pum.PUM, trains []Training, cfgs []pum.CacheCfg, limit uint64) (*pum.PUM, []*rtl.CalibReport, error) {
	return CalibrateCtx(context.Background(), base, trains, cfgs, limit)
}

// CalibrateCtx is Calibrate under ctx: every training run polls it, and
// once it is canceled or past its deadline the calibration fails with
// diag.ErrCanceled or diag.ErrDeadline.
func CalibrateCtx(ctx context.Context, base *pum.PUM, trains []Training, cfgs []pum.CacheCfg, limit uint64) (*pum.PUM, []*rtl.CalibReport, error) {
	if len(trains) == 0 {
		return nil, nil, fmt.Errorf("calib: no training programs")
	}
	names := make([]string, len(trains))
	reps := make([]*rtl.CalibReport, len(trains))
	for i, tr := range trains {
		rep, err := measure(ctx, base, tr, cfgs, limit)
		if err != nil {
			return nil, nil, err
		}
		names[i], reps[i] = tr.Name, rep
	}
	out, err := merge(base, names, reps)
	if err != nil {
		return nil, nil, err
	}
	return out, reps, nil
}

// measure runs one training program on the board's processor model for
// every configuration of cfgs, under ctx.
func measure(ctx context.Context, base *pum.PUM, tr Training, cfgs []pum.CacheCfg, limit uint64) (*rtl.CalibReport, error) {
	rep, err := rtl.Measure(ctx, base, tr.Prog, tr.Entry, cfgs, limit)
	if err != nil {
		return nil, fmt.Errorf("calib: training %q: %w", tr.Name, err)
	}
	return rep, nil
}

// merge builds the calibrated copy of base from the reports of the named
// training programs, which all measured the same configuration list.
func merge(base *pum.PUM, names []string, reps []*rtl.CalibReport) (*pum.PUM, error) {
	out := base.Clone()
	out.Calib = nil // recalibration replaces any prior provenance
	var missSum float64
	for i, rep := range reps {
		missSum += rep.BranchMiss
		for _, cs := range rep.Stats {
			out.Calib = append(out.Calib, pum.CalibSource{
				Cfg: cs.Cfg, Train: names[i], Steps: rep.Steps, BranchMiss: rep.BranchMiss,
			})
		}
	}
	// Average the snapshots per configuration across programs.
	n := float64(len(reps))
	for i, cs := range reps[0].Stats {
		sum := cs.Mem
		for _, rep := range reps[1:] {
			other := rep.Stats[i].Mem
			sum.IHitRate += other.IHitRate
			sum.DHitRate += other.DHitRate
			sum.IHitDelay += other.IHitDelay
			sum.DHitDelay += other.DHitDelay
			sum.IMissPenalty += other.IMissPenalty
			sum.DMissPenalty += other.DMissPenalty
		}
		sum.IHitRate /= n
		sum.DHitRate /= n
		sum.IHitDelay /= n
		sum.DHitDelay /= n
		sum.IMissPenalty /= n
		sum.DMissPenalty /= n
		out.Mem.Table[cs.Cfg] = sum
	}
	out.Branch.MissRate = missSum / n
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("calib: merged model invalid: %w", err)
	}
	return out, nil
}
