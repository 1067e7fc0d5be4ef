// Package rtl implements the cycle-accurate reference models of the
// reproduction: the processor pipeline model with real caches and a real
// branch predictor, the custom-hardware datapath model, and the full-system
// board (PCAM) simulation that plays the role of the paper's on-board
// measurements. The PUM is treated as the PE's datasheet: per-class
// operation costs and the external memory latency come from it, so the
// difference between the board and the timed TLM is exactly what the paper
// studies — statistical versus actual cache/branch behaviour, plus
// block-boundary scheduling effects. The actual behaviour is also what
// calibration measures: Measure runs a training program once and reports
// the cache hit rates of every configuration and the branch misprediction
// ratio; internal/calib builds the calibrated model from those reports.
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

// RealCacheConfig is the board's cache organization for a given size:
// 2-way set-associative with 16-byte lines, LRU.
func RealCacheConfig(size int) cache.Config {
	return cache.Config{Size: size, LineBytes: cache.DefaultLine, Assoc: 2}
}

// predictorFor builds the predictor named by the PUM branch model.
func predictorFor(name string) (branch.Predictor, error) {
	if name == "2bit" {
		return branch.NewBimodal(512)
	}
	return branch.StaticNotTaken{}, nil
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

	classCost [16]uint64
	extLat    uint64
	brPenalty uint64
	fillCost  uint64

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
	for cls, info := range cfg.Model.Ops {
		cost := 0
		for _, su := range info.Stages {
			if su.Cycles > cost {
				cost = su.Cycles
			}
		}
		c.classCost[cls] = uint64(cost)
	}
	c.extLat = uint64(cfg.Model.Mem.ExtLatency)
	c.brPenalty = uint64(cfg.Model.Branch.Penalty)
	// Pipeline fill: the first instruction traverses the whole pipe.
	c.fillCost = uint64(len(cfg.Model.Pipelines[0].Stages) - 1)
	c.Cycles = c.fillCost
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
	cost = c.classCost[t.Class]
	if cost == 0 {
		cost = 1
	}
	// Instruction fetch.
	if c.IC.Enabled() {
		if !c.IC.Access(iss.PCAddr(t.PC)) {
			cost += c.extLat
		}
	} else {
		cost += c.extLat
	}
	// Data operands.
	for _, a := range t.DAddrs {
		if c.DC.Enabled() {
			if !c.DC.Access(a) {
				cost += c.extLat
			}
		} else {
			cost += c.extLat
		}
	}
	// Branch resolution.
	if t.Branch {
		if c.BP.Resolve(iss.PCAddr(t.PC), t.Taken) {
			cost += c.brPenalty
		}
	}
	c.Cycles += cost
	return cost, t.Done, nil
}

// Trace exposes the last retired instruction's trace (for the board's
// communication integration).
func (c *CPU) Trace() *iss.Trace { return &c.tr }

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
func (c *CPU) MemStatsSnapshot() pum.MemStats { return memStats(c.IC, c.DC, c.extLat) }

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
