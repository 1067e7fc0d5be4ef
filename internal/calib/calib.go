// Package calib closes the loop between the statistical PUM and the
// cycle-accurate board model: it calibrates the statistical memory and
// branch models from one or more training programs (with per-config,
// per-program provenance recorded in the returned PUM), then scores the
// calibrated estimator against the board across the full application ×
// design × cache-configuration matrix, reporting MAPE and Pearson r per
// design. The paper's "~6–9% error" headline becomes a tracked number:
// the scoreboard serializes to BENCH_accuracy.json, and CI gates it
// through internal/cli's baseline contract, as it does BENCH_tlm.json.
package calib

import (
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

// Calibrate is the multi-program generalization of rtl.Calibrate: each
// training program is profiled on the cycle-accurate processor model for
// every cached configuration, and the resulting statistics are merged into
// one model by unweighted averaging — per configuration for the memory
// table, across programs for the branch misprediction ratio. The returned
// PUM carries one provenance entry per (configuration, program) pair; the
// per-program reports are returned alongside for inspection.
//
// With a single training program this is exactly rtl.CalibrateReport with
// the provenance relabeled from the entry name to the training name.
func Calibrate(base *pum.PUM, trains []Training, cfgs []pum.CacheCfg, limit uint64) (*pum.PUM, []*rtl.CalibReport, error) {
	if len(trains) == 0 {
		return nil, nil, fmt.Errorf("calib: no training programs")
	}
	var reps []*rtl.CalibReport
	out := base.Clone()
	out.Calib = nil // recalibration replaces any prior provenance
	var missSum float64
	for _, tr := range trains {
		_, rep, err := rtl.CalibrateReport(base, tr.Prog, tr.Entry, cfgs, limit)
		if err != nil {
			return nil, nil, fmt.Errorf("calib: training %q: %w", tr.Name, err)
		}
		rep.Train = tr.Name
		reps = append(reps, rep)
		missSum += rep.BranchMiss
		for _, cs := range rep.Stats {
			out.Calib = append(out.Calib, pum.CalibSource{
				Cfg: cs.Cfg, Train: tr.Name, Steps: cs.Steps, BranchMiss: cs.BranchMiss,
			})
		}
	}
	// Merge: every report measured the same configuration list, so average
	// the snapshots per configuration across programs.
	n := float64(len(reps))
	for i, cs := range reps[0].Stats {
		sum := cs.Mem
		for _, rep := range reps[1:] {
			other := rep.Stats[i]
			if other.Cfg != cs.Cfg {
				return nil, nil, fmt.Errorf("calib: training %q measured %v where %q measured %v",
					rep.Train, other.Cfg, reps[0].Train, cs.Cfg)
			}
			sum.IHitRate += other.Mem.IHitRate
			sum.DHitRate += other.Mem.DHitRate
			sum.IHitDelay += other.Mem.IHitDelay
			sum.DHitDelay += other.Mem.DHitDelay
			sum.IMissPenalty += other.Mem.IMissPenalty
			sum.DMissPenalty += other.Mem.DMissPenalty
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
		return nil, nil, fmt.Errorf("calib: merged model invalid: %w", err)
	}
	return out, reps, nil
}
