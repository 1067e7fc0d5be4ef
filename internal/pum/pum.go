// Package pum defines the Processing Unit Model of the paper (§4.1): the
// retargetable abstraction of a processing element that the estimation
// engine schedules basic blocks against. A PUM is made of four sub-models:
//
//  1. Execution model — the operation scheduling policy plus the operation
//     mapping table (per-stage functional-unit usage, demand stage, commit
//     stage) for every operation class;
//  2. Datapath model — functional units with quantities, and one or more
//     issue pipelines (multiple pipelines model superscalar PEs);
//  3. Branch delay model — a statistical model of the branch predictor
//     (misprediction ratio and penalty);
//  4. Memory model — statistical i-cache/d-cache hit rates and latencies
//     for a set of cache sizes, plus the external memory latency.
//
// PUMs are plain data: they can be built in Go (see library.go for the
// MicroBlaze-like and custom-hardware examples of Figs. 4–5) or loaded from
// JSON (json.go), which is what makes the estimator retargetable.
package pum

import (
	"fmt"
	"math"
	"sort"

	"ese/internal/cdfg"
)

// Policy is the operation scheduling policy of the execution model.
type Policy int

const (
	// PolicyInOrder issues operations strictly in program order, one
	// issue slot at a time — the policy of in-order processor pipelines.
	PolicyInOrder Policy = iota
	// PolicyASAP issues any ready operation in FIFO order of readiness.
	PolicyASAP
	// PolicyList issues ready operations by descending DFG depth
	// (critical-path list scheduling) — typical for synthesized hardware.
	PolicyList
)

var policyNames = map[Policy]string{
	PolicyInOrder: "inorder",
	PolicyASAP:    "asap",
	PolicyList:    "list",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	for p, n := range policyNames {
		if n == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("pum: unknown scheduling policy %q", s)
}

// FU is one functional-unit kind in the datapath model.
type FU struct {
	ID       string
	Quantity int
}

// StageUse describes what an operation does in one pipeline stage: which
// functional unit it occupies (empty means only the pipeline register) and
// for how many cycles.
type StageUse struct {
	FU     string
	Cycles int
}

// OpInfo is one row of the operation mapping table.
type OpInfo struct {
	// Stages has one entry per pipeline stage.
	Stages []StageUse
	// Demand is the stage index at which the operation needs its operands
	// (the "demand operand" flag of the paper).
	Demand int
	// Commit is the stage index after which the result is available to
	// dependent operations (the "commit result" flag).
	Commit int
}

// Pipeline is one issue pipeline of the datapath model.
type Pipeline struct {
	Name       string
	Stages     []string
	IssueWidth int // operations accepted into stage 0 per cycle
}

// BranchModel is the statistical branch delay model.
type BranchModel struct {
	// Predictor selects the real predictor of the board and of
	// calibration: "2bit" is a 512-entry bimodal table, any other name
	// ("static-nt", ...) static not-taken. Estimation does not read it.
	Predictor string
	MissRate  float64 // average misprediction ratio
	Penalty   float64 // cycles lost per misprediction
}

// CacheCfg identifies one I/D cache size configuration in bytes.
// A zero size means the cache is absent.
type CacheCfg struct {
	ISize int
	DSize int
}

func (c CacheCfg) String() string {
	return fmt.Sprintf("%dk/%dk", c.ISize/1024, c.DSize/1024)
}

// MemStats are the statistical memory model values for one configuration.
type MemStats struct {
	IHitRate     float64
	DHitRate     float64
	IHitDelay    float64 // extra cycles per op on an i-cache hit
	DHitDelay    float64 // extra cycles per operand on a d-cache hit
	IMissPenalty float64 // extra cycles per op on an i-cache miss
	DMissPenalty float64 // extra cycles per operand on a d-cache miss
}

// CalibSource records where one calibrated memory-table entry came from:
// the training program it was profiled on, the dynamic instruction count of
// that run, and the branch misprediction ratio observed under the same
// configuration. It is provenance, not behavior — DatapathFingerprint and
// StatFingerprint deliberately ignore it, so a recalibration that lands on
// identical statistics still hits the schedule/estimate caches.
type CalibSource struct {
	Cfg        CacheCfg
	Train      string  // training program label
	Steps      uint64  // dynamic instructions profiled
	BranchMiss float64 // misprediction ratio observed under Cfg
}

// MemModel is the statistical memory model: per-configuration statistics
// plus the current selection.
type MemModel struct {
	HasICache bool
	HasDCache bool
	// ExtLatency is the external memory access latency in cycles; it is the
	// miss penalty floor and the uncached access cost.
	ExtLatency float64
	// Table holds statistics for a set of cache sizes, as the paper's
	// memory model prescribes. Current selects the active entry.
	Table   map[CacheCfg]MemStats
	Current MemStats
}

// PUM is a complete processing unit model.
type PUM struct {
	Name      string
	ClockHz   int64
	Policy    Policy
	Pipelined bool // branch penalties apply only to pipelined PEs
	Pipelines []Pipeline
	FUs       []FU
	Ops       map[cdfg.Class]OpInfo
	Branch    BranchModel
	Mem       MemModel
	// Calib is the calibration provenance of the statistical sub-models:
	// one entry per (cache configuration, training program) pair that
	// contributed to Mem.Table and Branch.MissRate. Empty means the
	// statistics are nominal (library defaults or hand-written JSON).
	Calib []CalibSource
}

// Clone returns a deep copy, so callers can vary cache configs or rates
// without aliasing.
func (p *PUM) Clone() *PUM {
	q := *p
	q.Pipelines = append([]Pipeline(nil), p.Pipelines...)
	for i := range q.Pipelines {
		q.Pipelines[i].Stages = append([]string(nil), p.Pipelines[i].Stages...)
	}
	q.FUs = append([]FU(nil), p.FUs...)
	q.Ops = make(map[cdfg.Class]OpInfo, len(p.Ops))
	for k, v := range p.Ops {
		v.Stages = append([]StageUse(nil), v.Stages...)
		q.Ops[k] = v
	}
	q.Mem.Table = make(map[CacheCfg]MemStats, len(p.Mem.Table))
	for k, v := range p.Mem.Table {
		q.Mem.Table[k] = v
	}
	q.Calib = append([]CalibSource(nil), p.Calib...)
	return &q
}

// WithCache returns a copy of the PUM with the memory model switched to the
// statistics of the given cache configuration. The configuration must be
// present in the table (or be the zero config, meaning uncached: every
// access pays ExtLatency).
func (p *PUM) WithCache(cfg CacheCfg) (*PUM, error) {
	q := p.Clone()
	if cfg.ISize == 0 && cfg.DSize == 0 {
		q.Mem.HasICache = false
		q.Mem.HasDCache = false
		q.Mem.Current = MemStats{
			IHitRate: 0, DHitRate: 0,
			IMissPenalty: p.Mem.ExtLatency,
			DMissPenalty: p.Mem.ExtLatency,
		}
		return q, nil
	}
	st, ok := p.Mem.Table[cfg]
	if !ok {
		return nil, fmt.Errorf("pum: %s has no memory statistics for %v", p.Name, cfg)
	}
	q.Mem.HasICache = cfg.ISize > 0
	q.Mem.HasDCache = cfg.DSize > 0
	q.Mem.Current = st
	return q, nil
}

// FUQuantity returns the quantity of the functional unit, 0 if unknown.
func (p *PUM) FUQuantity(id string) int {
	for _, fu := range p.FUs {
		if fu.ID == id {
			return fu.Quantity
		}
	}
	return 0
}

// scheduledClasses are the operation classes the lowering can produce. A
// model need not map all of them: estimation charges unmapped classes the
// fallback latency (graceful degradation) or rejects them in strict mode.
var scheduledClasses = []cdfg.Class{
	cdfg.ClassALU, cdfg.ClassMul, cdfg.ClassDiv, cdfg.ClassShift,
	cdfg.ClassLoad, cdfg.ClassStore, cdfg.ClassBranch, cdfg.ClassJump,
	cdfg.ClassCall, cdfg.ClassIO,
}

// Validate checks internal consistency of the model.
func (p *PUM) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pum: missing name")
	}
	if p.ClockHz <= 0 {
		return fmt.Errorf("pum %s: clock must be positive", p.Name)
	}
	if len(p.Pipelines) == 0 {
		return fmt.Errorf("pum %s: needs at least one pipeline", p.Name)
	}
	nStages := len(p.Pipelines[0].Stages)
	for _, pl := range p.Pipelines {
		if len(pl.Stages) == 0 {
			return fmt.Errorf("pum %s: pipeline %q has no stages", p.Name, pl.Name)
		}
		if len(pl.Stages) != nStages {
			return fmt.Errorf("pum %s: pipelines must have equal depth", p.Name)
		}
		if pl.IssueWidth <= 0 {
			return fmt.Errorf("pum %s: pipeline %q issue width must be positive", p.Name, pl.Name)
		}
	}
	fus := make(map[string]bool)
	for _, fu := range p.FUs {
		if fu.Quantity <= 0 {
			return fmt.Errorf("pum %s: FU %q quantity must be positive", p.Name, fu.ID)
		}
		if fus[fu.ID] {
			return fmt.Errorf("pum %s: duplicate FU %q", p.Name, fu.ID)
		}
		fus[fu.ID] = true
	}
	for _, cls := range scheduledClasses {
		info, ok := p.Ops[cls]
		if !ok {
			continue
		}
		if len(info.Stages) != nStages {
			return fmt.Errorf("pum %s: class %v maps %d stages, pipeline has %d",
				p.Name, cls, len(info.Stages), nStages)
		}
		if info.Demand < 0 || info.Demand >= nStages {
			return fmt.Errorf("pum %s: class %v demand stage %d out of range", p.Name, cls, info.Demand)
		}
		if info.Commit < info.Demand || info.Commit >= nStages {
			return fmt.Errorf("pum %s: class %v commit stage %d invalid", p.Name, cls, info.Commit)
		}
		for si, su := range info.Stages {
			if su.Cycles < 1 {
				return fmt.Errorf("pum %s: class %v stage %d cycles must be >= 1", p.Name, cls, si)
			}
			if su.FU != "" && !fus[su.FU] {
				return fmt.Errorf("pum %s: class %v stage %d uses unknown FU %q", p.Name, cls, si, su.FU)
			}
		}
	}
	if !validRate(p.Branch.MissRate) {
		return fmt.Errorf("pum %s: branch miss rate %v out of [0,1]", p.Name, p.Branch.MissRate)
	}
	if !validDelay(p.Branch.Penalty) {
		return fmt.Errorf("pum %s: branch penalty %v must be non-negative and finite", p.Name, p.Branch.Penalty)
	}
	for cfg, st := range p.Mem.Table {
		if err := st.validate(p.Name, cfg.String()); err != nil {
			return err
		}
	}
	// The Current selection feeds ComposeEstimate directly, whether it came
	// from WithCache or was set by hand — a NaN or negative value here would
	// round straight into every block's Total.
	if err := p.Mem.Current.validate(p.Name, "current selection"); err != nil {
		return err
	}
	if !validDelay(p.Mem.ExtLatency) {
		return fmt.Errorf("pum %s: external latency %v must be non-negative and finite", p.Name, p.Mem.ExtLatency)
	}
	return nil
}

// validRate reports whether r is a finite probability in [0,1]. The
// comparison is written so that NaN fails it: both NaN<0 and NaN>1 are
// false, which is how out-of-range statistics used to slip through.
func validRate(r float64) bool { return r >= 0 && r <= 1 }

// validDelay reports whether a latency/penalty value is finite and
// non-negative.
func validDelay(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Validate checks one statistical memory model entry in isolation — the
// check calibration applies to every profiled snapshot before it enters a
// model's table, so a degenerate training run (no branches, no data
// accesses, disabled caches) can never smuggle a NaN or out-of-range rate
// into estimation.
func (st MemStats) Validate() error {
	return st.validate("stats", "snapshot")
}

// validate checks one statistical memory model entry.
func (st MemStats) validate(name, where string) error {
	if !validRate(st.IHitRate) || !validRate(st.DHitRate) {
		return fmt.Errorf("pum %s: hit rate (i=%v d=%v) for %s out of [0,1]",
			name, st.IHitRate, st.DHitRate, where)
	}
	for _, v := range []float64{st.IMissPenalty, st.DMissPenalty, st.IHitDelay, st.DHitDelay} {
		if !validDelay(v) {
			return fmt.Errorf("pum %s: memory latency %v for %s must be non-negative and finite",
				name, v, where)
		}
	}
	return nil
}

// Configs returns the cache configurations in the memory table, sorted.
func (p *PUM) Configs() []CacheCfg {
	out := make([]CacheCfg, 0, len(p.Mem.Table))
	for c := range p.Mem.Table {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ISize != out[j].ISize {
			return out[i].ISize < out[j].ISize
		}
		return out[i].DSize < out[j].DSize
	})
	return out
}
