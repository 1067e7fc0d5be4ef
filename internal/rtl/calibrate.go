package rtl

import (
	"errors"
	"fmt"

	"ese/internal/branch"
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
// branch predictor). A processor's retired instruction stream does not
// depend on its caches, so one functional run of the entry feeds every
// retired instruction to one real (I-cache, D-cache) pair per cached
// configuration and to one branch predictor: each cache sees the address
// stream a standalone CPU of that configuration would see. limit bounds
// the run's dynamic steps (0 = none). The entry must be a self-contained
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
func Measure(base *pum.PUM, prog *cdfg.Program, entry string, cfgs []pum.CacheCfg, limit uint64) (*CalibReport, error) {
	rep := &CalibReport{}
	var ics, dcs []*cache.Cache
	for _, cfg := range cfgs {
		if cfg.ISize == 0 && cfg.DSize == 0 {
			continue
		}
		rep.Stats = append(rep.Stats, CalibStats{Cfg: cfg})
		ics = append(ics, cache.New(RealCacheConfig(cfg.ISize)))
		dcs = append(dcs, cache.New(RealCacheConfig(cfg.DSize)))
	}
	if len(rep.Stats) == 0 {
		return nil, fmt.Errorf("%w: every configuration in %v is uncached", ErrUncalibrated, cfgs)
	}
	pred, err := predictorFor(base.Branch.Predictor)
	if err != nil {
		return nil, err
	}
	bp := &branch.Stats{P: pred}
	isa, err := iss.Generate(prog)
	if err != nil {
		return nil, err
	}
	m := iss.NewMachine(isa)
	if err := m.Start(entry); err != nil {
		return nil, err
	}
	// The loop retires instructions exactly as CPU.Run does; an absent
	// cache side counts misses only, and memStats reports it as hit rate 0.
	var t iss.Trace
	for {
		if err := m.Step(&t); err != nil {
			return nil, err
		}
		if !t.Executed {
			break
		}
		pc := iss.PCAddr(t.PC)
		for i, ic := range ics {
			ic.Access(pc)
			for _, a := range t.DAddrs {
				dcs[i].Access(a)
			}
		}
		if t.Branch {
			bp.Resolve(pc, t.Taken)
		}
		if t.Done {
			break
		}
		if limit != 0 && m.Steps > limit {
			return nil, fmt.Errorf("rtl: step limit %d exceeded", limit)
		}
	}
	for i := range rep.Stats {
		st := memStats(ics[i], dcs[i], uint64(base.Mem.ExtLatency))
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("rtl: calibrating %v: degenerate statistics: %w", rep.Stats[i].Cfg, err)
		}
		rep.Stats[i].Mem = st
	}
	rep.BranchMiss, rep.Steps = bp.MissRate(), m.Steps
	return rep, nil
}
