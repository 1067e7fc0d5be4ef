package rtl

import (
	"context"
	"errors"
	"fmt"

	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/iss"
	"ese/internal/pum"
)

// ErrUncalibrated reports that a calibration had no cached cache
// configuration to profile: every entry of cfgs was the uncached {0,0}
// geometry, which needs no statistics (every access pays the external
// latency), so neither the memory table nor the branch misprediction ratio
// was measured. Callers that meant to calibrate must be told nothing
// happened.
var ErrUncalibrated = errors.New("rtl: no cached configuration to calibrate on (statistical models unchanged)")

// CalibStats is one cached configuration's measured memory snapshot, the
// value that enters the PUM table.
type CalibStats struct {
	Cfg pum.CacheCfg
	Mem pum.MemStats
}

// CalibReport is what one training run measured: a memory snapshot per
// cached configuration, plus the branch misprediction ratio and dynamic
// instruction count of the run, which do not depend on the caches.
type CalibReport struct {
	// Stats holds one entry per cached configuration, in cfgs order.
	Stats      []CalibStats
	BranchMiss float64
	Steps      uint64
}

// Measure profiles a training process for the statistical memory and
// branch models, against the base PUM's datasheet (external latency,
// branch predictor). One functional pass of the entry (see pass) feeds
// every retired instruction to one real cache per distinct geometry of
// the cached configurations and to one branch predictor: each cache sees
// the address stream a one-configuration run would see. limit bounds the
// run's dynamic steps (0 = none), and ctx the run, which polls it every
// few thousand instructions. The entry must be a self-contained
// process (no channel communication), typically a reduced or
// representative input; evaluating on different inputs is what makes the
// statistical model approximate. Measure builds no model: internal/calib
// turns reports into a calibrated PUM.
//
// Configuration semantics:
//   - {0,0} is uncached: no statistics are needed, the configuration is
//     skipped (every access pays ExtLatency, see PUM.WithCache). If every
//     configuration is uncached, Measure fails with ErrUncalibrated before
//     executing anything.
//   - Mixed geometry ({0,D} or {I,0}): the absent side pays the external
//     latency on every access and is recorded with hit rate 0; real
//     statistics are measured for the present side.
func Measure(ctx context.Context, base *pum.PUM, prog *cdfg.Program, entry string, cfgs []pum.CacheCfg, limit uint64) (*CalibReport, error) {
	rep := &CalibReport{}
	for _, cfg := range cfgs {
		if cfg.ISize != 0 || cfg.DSize != 0 {
			rep.Stats = append(rep.Stats, CalibStats{Cfg: cfg})
		}
	}
	if len(rep.Stats) == 0 {
		return nil, fmt.Errorf("%w: every configuration in %v is uncached", ErrUncalibrated, cfgs)
	}
	isa, err := iss.Generate(prog)
	if err != nil {
		return nil, err
	}
	m := iss.NewMachine(isa)
	ps, err := newPass(ctx, m, base.Branch.Predictor, limit)
	if err != nil {
		return nil, err
	}
	tm := timingOf(base)
	for _, cs := range rep.Stats {
		ps.addLane(tm, cache.BoardConfig(cs.Cfg.ISize), cache.BoardConfig(cs.Cfg.DSize))
	}
	if err := m.Start(entry); err != nil {
		return nil, err
	}
	if err := ps.run(); err != nil {
		return nil, err
	}
	for i := range rep.Stats {
		st := ps.mem(i)
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("rtl: calibrating %v: degenerate statistics: %w", rep.Stats[i].Cfg, err)
		}
		rep.Stats[i].Mem = st
	}
	rep.BranchMiss, rep.Steps = ps.bp.MissRate(), m.Steps
	return rep, nil
}
