// Package rtl implements the cycle-accurate reference models of the
// reproduction: the processor pipeline model with real caches and a real
// branch predictor, the custom-hardware datapath model, and the full-system
// board (PCAM) simulation that plays the role of the paper's on-board
// measurements. The PUM is treated as the PE's datasheet: per-class
// operation costs and the external memory latency come from it, so the
// difference between the board and the timed TLM is exactly what the paper
// studies — statistical versus actual cache/branch behaviour, plus
// block-boundary scheduling effects.
//
// A processor's retired instruction stream does not depend on its caches,
// and channels are rendezvous, so neither does the sequence of channel
// operations between PEs. One functional pass (pass) therefore serves
// every cache configuration of a program: it feeds each retired
// instruction to one (I-cache, D-cache) pair per configuration and to one
// branch predictor, charging each configuration its own cycles. Measure
// runs it on a self-contained training program and reports the cache hit
// rates of every configuration and the branch misprediction ratio, from
// which internal/calib builds the calibrated model. RunBoards runs it on
// a whole design, recording each configuration's cycles per segment
// between channel operations, and replays each configuration's segments
// and transactions through tlm's bus on a fresh kernel. Cycles and memory
// statistics are per configuration; the out streams, step counts and the
// branch misprediction ratio are shared. CPU is the standalone one-config
// reference the pass is tested against.
package rtl

import (
	"fmt"

	"ese/internal/branch"
	"ese/internal/cache"
	"ese/internal/iss"
	"ese/internal/pum"
)

// CPUConfig configures the cycle-accurate processor model.
type CPUConfig struct {
	Model  *pum.PUM     // datasheet: op costs, branch penalty, ext latency
	ICache cache.Config // real organization; Size 0 = uncached
	DCache cache.Config
	// Predictor overrides the predictor implied by Model.Branch.Predictor
	// ("static-nt" or "2bit"); nil selects from the model.
	Predictor branch.Predictor
}

// predictorFor builds the predictor named by the PUM branch model.
func predictorFor(name string) (branch.Predictor, error) {
	if name == "2bit" {
		return branch.NewBimodal(512)
	}
	return branch.StaticNotTaken{}, nil
}

// timing is a processor datasheet's costs as the board charges them: per
// op class the bottleneck-stage occupancy (at least one cycle), the
// external memory latency of a miss or uncached access, the branch
// misprediction penalty, and the one-time pipeline fill (the first
// instruction traverses the whole pipe).
// A model without pipeline stages, which PUM.Validate rejects, gets no
// fill instead of a panic: calibration validates the model it builds.
type timing struct {
	classCost [16]uint64
	extLat    uint64
	brPenalty uint64
	fill      uint64
}

func timingOf(model *pum.PUM) timing {
	var tm timing
	for cls := range tm.classCost {
		tm.classCost[cls] = 1
	}
	for cls, info := range model.Ops {
		for _, su := range info.Stages {
			if su.Cycles > 0 {
				tm.classCost[cls] = max(tm.classCost[cls], uint64(su.Cycles))
			}
		}
	}
	tm.extLat = uint64(model.Mem.ExtLatency)
	tm.brPenalty = uint64(model.Branch.Penalty)
	if len(model.Pipelines) > 0 && len(model.Pipelines[0].Stages) > 0 {
		tm.fill = uint64(len(model.Pipelines[0].Stages) - 1)
	}
	return tm
}

// CPU is the cycle-accurate in-order pipeline model driving one functional
// machine. Timing per retired instruction: the class's bottleneck-stage
// occupancy, plus i-cache and d-cache miss stalls, plus the branch
// misprediction penalty — exactly the cost model of the single-issue
// in-order core the PUM describes, evaluated with true cache and predictor
// state instead of statistics.
type CPU struct {
	M  *iss.Machine
	IC *cache.Cache
	DC *cache.Cache
	BP *branch.Stats

	tm timing

	Cycles uint64
	tr     iss.Trace
}

// NewCPU builds the pipeline model around a loaded machine.
func NewCPU(m *iss.Machine, cfg CPUConfig) (*CPU, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("rtl: CPU needs a PUM datasheet")
	}
	c := &CPU{
		M:  m,
		IC: cache.New(cfg.ICache),
		DC: cache.New(cfg.DCache),
	}
	pred := cfg.Predictor
	if pred == nil {
		var err error
		pred, err = predictorFor(cfg.Model.Branch.Predictor)
		if err != nil {
			return nil, err
		}
	}
	c.BP = &branch.Stats{P: pred}
	c.tm = timingOf(cfg.Model)
	c.Cycles = c.tm.fill
	return c, nil
}

// StepTimed retires one instruction and returns the cycles it consumed
// (also accumulated into Cycles). done reports program completion.
func (c *CPU) StepTimed() (cost uint64, done bool, err error) {
	t := &c.tr
	if err := c.M.Step(t); err != nil {
		return 0, false, err
	}
	if !t.Executed {
		return 0, true, nil
	}
	cost = c.tm.classCost[t.Class]
	// Instruction fetch.
	if c.IC.Enabled() {
		if !c.IC.Access(iss.PCAddr(t.PC)) {
			cost += c.tm.extLat
		}
	} else {
		cost += c.tm.extLat
	}
	// Data operands.
	for _, a := range t.DAddrs {
		if c.DC.Enabled() {
			if !c.DC.Access(a) {
				cost += c.tm.extLat
			}
		} else {
			cost += c.tm.extLat
		}
	}
	// Branch resolution.
	if t.Branch {
		if c.BP.Resolve(iss.PCAddr(t.PC), t.Taken) {
			cost += c.tm.brPenalty
		}
	}
	c.Cycles += cost
	return cost, t.Done, nil
}

// Run executes to completion standalone (no platform communication).
func (c *CPU) Run(limit uint64) error {
	for {
		_, done, err := c.StepTimed()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if limit != 0 && c.M.Steps > limit {
			return fmt.Errorf("rtl: step limit %d exceeded", limit)
		}
	}
}

// MemStatsSnapshot returns the observed cache statistics in PUM form.
func (c *CPU) MemStatsSnapshot() pum.MemStats { return memStats(c.IC, c.DC, c.tm.extLat) }

// memStats puts a cache pair's observed statistics in PUM form, the raw
// material of calibration. A disabled cache side (size 0 in a mixed I/D
// geometry) is reported as hit rate 0: on the board every access on that
// side pays the external latency, and the statistical model must say the
// same — the idle-cache HitRate default of 1.0 would make estimation
// charge nothing for a path the board charges ExtLatency per access.
func memStats(ic, dc *cache.Cache, extLat uint64) pum.MemStats {
	st := pum.MemStats{
		IMissPenalty: float64(extLat),
		DMissPenalty: float64(extLat),
	}
	if ic.Enabled() {
		st.IHitRate = ic.HitRate()
	}
	if dc.Enabled() {
		st.DHitRate = dc.HitRate()
	}
	return st
}
