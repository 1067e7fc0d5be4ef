// Package core implements the paper's estimation engine: Algorithm 1
// (optimistic scheduling of a basic block's DFG on the processing unit
// model) and Algorithm 2 (composition of the basic-block delay from the
// scheduling delay plus statistical cache and branch-misprediction
// penalties). This is the primary contribution of the paper.
//
// The two algorithms are exposed both as one-shot helpers (Schedule,
// BlockDelay) and as a split, reusable form: a Scheduler carries the
// per-PUM operation table and scratch state across blocks, ScheduleBlock
// produces the statistics-independent SchedResult of Algorithm 1, and
// ComposeEstimate applies Algorithm 2's statistical penalties on top. The
// split is what makes schedule results cacheable across retargets of the
// statistical models (see Cache and EstimateBlocksCtx).
package core

import (
	"ese/internal/cdfg"
	"ese/internal/pum"
)

// opState tracks one DFG operation through the pipeline simulation.
type opState struct {
	idx       int // instruction index in the block
	info      *pum.OpInfo
	pipeline  int // pipeline the op was issued to, -1 before issue
	stage     int // current stage, -1 before issue
	counter   int // remaining cycles in the current stage
	committed bool
	done      bool
	height    int // list-scheduling priority (critical path length)
}

// DefaultFallbackCycles is the latency charged to an operation whose class
// the PUM does not map, when estimation runs in graceful-degradation mode
// (see EstOptions.FallbackCycles for the override).
const DefaultFallbackCycles = 1

// Scheduler is a reusable Algorithm 1 engine bound to one PUM. It resolves
// the per-class operation info out of the PUM's mapping table once at
// construction and reuses its simulation scratch state (op array, FU
// usage, stage occupancy) across blocks, so scheduling a block performs no
// map lookups and amortizes allocations. A Scheduler is not safe for
// concurrent use; give each worker its own (they are cheap).
//
// Operation classes absent from the PUM's mapping table are scheduled with
// a synthetic fallback row (fallbackCycles in the first stage, one cycle
// per later stage) instead of the zero OpInfo, whose empty stage list used
// to crash the stage-entry simulation. ScheduleBlock counts such ops in
// SchedResult.Unmapped so callers can flag the block as degraded or reject
// it in strict mode.
type Scheduler struct {
	p *pum.PUM
	// classInfo caches the operation mapping row per operation class, so
	// the per-instruction lookup is an array index instead of a map access
	// plus a fresh OpInfo copy. Unmapped classes hold the synthetic
	// fallback row.
	classInfo [cdfg.ClassIO + 1]pum.OpInfo
	// unmapped flags the classes the PUM does not map.
	unmapped [cdfg.ClassIO + 1]bool
	// fallbackCycles is the first-stage latency of the synthetic row.
	fallbackCycles int

	dfg     *cdfg.DFG
	ops     []opState
	fuUse   map[string]int
	candBuf []int
	// stageOcc[pl][stage] is the number of ops currently in that stage of
	// that pipeline; used to enforce in-order single-file flow.
	stageOcc [][]int
	// nextInOrder is the next op index to issue under PolicyInOrder.
	nextInOrder int
	doneCount   int
}

// NewScheduler builds a reusable scheduler for the PUM with the default
// fallback latency for unmapped operation classes.
func NewScheduler(p *pum.PUM) *Scheduler {
	return NewSchedulerFallback(p, DefaultFallbackCycles)
}

// NewSchedulerFallback builds a reusable scheduler whose unmapped
// operation classes are charged the given first-stage latency (values < 1
// use DefaultFallbackCycles).
func NewSchedulerFallback(p *pum.PUM, fallbackCycles int) *Scheduler {
	if fallbackCycles < 1 {
		fallbackCycles = DefaultFallbackCycles
	}
	s := &Scheduler{p: p, fuUse: make(map[string]int), fallbackCycles: fallbackCycles}
	fb := fallbackInfo(p, fallbackCycles)
	for cls := range s.classInfo {
		if info, ok := p.Ops[cdfg.Class(cls)]; ok && len(info.Stages) > 0 {
			s.classInfo[cls] = info
		} else {
			s.classInfo[cls] = fb
			s.unmapped[cls] = true
		}
	}
	s.stageOcc = make([][]int, len(p.Pipelines))
	for pl := range p.Pipelines {
		s.stageOcc[pl] = make([]int, len(p.Pipelines[pl].Stages))
	}
	return s
}

// fallbackInfo synthesizes the mapping row used for unmapped classes: the
// op flows through every stage of the pipeline, paying the fallback
// latency in the first stage and one cycle in each later stage, demanding
// operands at issue and committing in the last stage. It claims no
// functional units, so it can never deadlock on a structural hazard.
func fallbackInfo(p *pum.PUM, cycles int) pum.OpInfo {
	nStages := 1
	if len(p.Pipelines) > 0 && len(p.Pipelines[0].Stages) > 0 {
		nStages = len(p.Pipelines[0].Stages)
	}
	info := pum.OpInfo{Stages: make([]pum.StageUse, nStages), Demand: 0, Commit: nStages - 1}
	info.Stages[0] = pum.StageUse{Cycles: cycles}
	for i := 1; i < nStages; i++ {
		info.Stages[i] = pum.StageUse{Cycles: 1}
	}
	return info
}

// Unmapped reports whether the scheduler treats the class as unmapped.
func (s *Scheduler) Unmapped(cls cdfg.Class) bool {
	return int(cls) < len(s.unmapped) && s.unmapped[cls]
}

// UnmappedClasses returns the distinct operation classes used by the block
// that the PUM does not map, in class order (nil when fully mapped).
func UnmappedClasses(b *cdfg.Block, p *pum.PUM) []cdfg.Class {
	var seen [cdfg.ClassIO + 1]bool
	var out []cdfg.Class
	for i := range b.Instrs {
		cls := cdfg.OpClass(b.Instrs[i].Op)
		if int(cls) >= len(seen) || seen[cls] {
			continue
		}
		seen[cls] = true
		if info, ok := p.Ops[cls]; !ok || len(info.Stages) == 0 {
			out = append(out, cls)
		}
	}
	return out
}

// Schedule computes the optimistic scheduling delay (in PE cycles) of a
// basic block's DFG on the PUM, assuming 100% cache hits and no branch
// misprediction — Algorithm 1 of the paper. The simulation is guaranteed to
// terminate because the DFG is acyclic.
func Schedule(d *cdfg.DFG, p *pum.PUM) int {
	return NewScheduler(p).Schedule(d)
}

// Schedule runs Algorithm 1 on one block's DFG, reusing the scheduler's
// scratch state.
func (s *Scheduler) Schedule(d *cdfg.DFG) int {
	n := len(d.Block.Instrs)
	if n == 0 {
		return 0
	}
	s.reset(d, n)

	delay := 0
	for s.doneCount < n {
		for pl := range s.p.Pipelines {
			s.advClock(pl)
		}
		for pl := range s.p.Pipelines {
			s.assignOps(pl)
		}
		delay++
	}
	return delay
}

// reset prepares the scratch state for a fresh block of n instructions.
func (s *Scheduler) reset(d *cdfg.DFG, n int) {
	s.dfg = d
	if cap(s.ops) < n {
		s.ops = make([]opState, n)
	} else {
		s.ops = s.ops[:n]
	}
	for i := range s.ops {
		cls := cdfg.OpClass(d.Block.Instrs[i].Op)
		s.ops[i] = opState{idx: i, info: &s.classInfo[cls], pipeline: -1, stage: -1}
	}
	if s.p.Policy == pum.PolicyList {
		s.computeHeights()
	}
	clear(s.fuUse)
	for pl := range s.stageOcc {
		occ := s.stageOcc[pl]
		for st := range occ {
			occ[st] = 0
		}
	}
	s.nextInOrder = 0
	s.doneCount = 0
}

// computeHeights fills the list-scheduling priority: the length (in execute
// cycles) of the longest dependency chain from each op to any sink. Deps
// point backwards, so a reverse index scan is a reverse-topological order.
func (s *Scheduler) computeHeights() {
	n := len(s.ops)
	for i := n - 1; i >= 0; i-- {
		// Own execution weight: total stage cycles.
		w := 0
		for _, su := range s.ops[i].info.Stages {
			w += su.Cycles
		}
		s.ops[i].height = w
	}
	// Propagate: for each op j with dependency i, height[i] >= w[i] + height[j].
	for j := n - 1; j >= 0; j-- {
		for _, i := range s.dfg.Deps[j] {
			w := 0
			for _, su := range s.ops[i].info.Stages {
				w += su.Cycles
			}
			if h := w + s.ops[j].height; h > s.ops[i].height {
				s.ops[i].height = h
			}
		}
	}
}

// depsCommitted reports whether all data dependencies of op i have
// committed their results.
func (s *Scheduler) depsCommitted(i int) bool {
	for _, j := range s.dfg.Deps[i] {
		if !s.ops[j].committed {
			return false
		}
	}
	return true
}

// stageCapacity returns how many ops may simultaneously occupy a stage of
// the pipeline. In-order pipelines are single-file (ops never overtake);
// dataflow-style schedulers are bounded only by functional units.
func (s *Scheduler) stageCapacity(pl int) int {
	if s.p.Policy == pum.PolicyInOrder {
		return s.p.Pipelines[pl].IssueWidth
	}
	return 1 << 30
}

// tryEnterStage checks demand and structural constraints for op entering
// the given stage of its pipeline, and claims resources if possible.
func (s *Scheduler) tryEnterStage(op *opState, pl, stage int) bool {
	if s.stageOcc[pl][stage] >= s.stageCapacity(pl) {
		return false
	}
	// Demand stage: operands must be available (paper: dependencies must
	// be in the commit set — no data hazard).
	if stage == op.info.Demand && !s.depsCommitted(op.idx) {
		return false
	}
	su := op.info.Stages[stage]
	if su.FU != "" && s.fuUse[su.FU] >= s.p.FUQuantity(su.FU) {
		return false
	}
	// Claim.
	if su.FU != "" {
		s.fuUse[su.FU]++
	}
	s.stageOcc[pl][stage]++
	op.stage = stage
	op.counter = su.Cycles
	return true
}

// leaveStage releases the resources op holds in its current stage.
func (s *Scheduler) leaveStage(op *opState, pl int) {
	su := op.info.Stages[op.stage]
	if su.FU != "" {
		s.fuUse[su.FU]--
	}
	s.stageOcc[pl][op.stage]--
}

// advClock advances every in-flight op of the pipeline by one clock edge:
// counters decrement; ops whose counter reaches zero either commit+finish
// (last stage) or try to advance to the next stage, stalling in place on a
// demand or structural hazard. Stages are processed from the back so that
// a freed stage can accept the op behind it in the same cycle.
func (s *Scheduler) advClock(pl int) {
	lastStage := len(s.p.Pipelines[pl].Stages) - 1
	for stage := lastStage; stage >= 0; stage-- {
		for i := range s.ops {
			op := &s.ops[i]
			if op.pipeline != pl || op.done || op.stage != stage {
				continue
			}
			if op.counter > 0 {
				op.counter--
			}
			if op.counter > 0 {
				continue
			}
			// Counter exhausted: the op has finished this stage's work.
			if stage >= op.info.Commit {
				op.committed = true
			}
			if stage == lastStage {
				s.leaveStage(op, pl)
				op.done = true
				s.doneCount++
				continue
			}
			// Try to advance; on failure the op stalls holding its stage.
			s.tryEnterStageFrom(op, pl, op.stage+1)
		}
	}
}

// tryEnterStageFrom moves op from its current stage into next, releasing
// the old stage's resources first (and re-claiming them on failure).
func (s *Scheduler) tryEnterStageFrom(op *opState, pl, next int) bool {
	oldStage := op.stage
	s.leaveStage(op, pl)
	if s.tryEnterStage(op, pl, next) {
		return true
	}
	// Stall: re-occupy the old stage (resources were held all along
	// conceptually; this re-claim cannot fail because we just released).
	su := op.info.Stages[oldStage]
	if su.FU != "" {
		s.fuUse[su.FU]++
	}
	s.stageOcc[pl][oldStage]++
	op.stage = oldStage
	return false
}

// assignOps issues operations from the remaining set into stage 0 of the
// pipeline, according to the scheduling policy (Algorithm 1's AssignOps).
// In-order issue stops at the first blocked op (no overtaking); dataflow
// policies (ASAP, list) skip blocked candidates and try the next.
func (s *Scheduler) assignOps(pl int) {
	width := s.p.Pipelines[pl].IssueWidth
	if s.p.Policy == pum.PolicyInOrder {
		for issued := 0; issued < width; issued++ {
			cand := s.nextInOrderCandidate()
			if cand < 0 {
				return
			}
			if !s.tryEnterStage(&s.ops[cand], pl, 0) {
				return
			}
			s.ops[cand].pipeline = pl
			s.nextInOrder++
		}
		return
	}
	issued := 0
	for _, cand := range s.orderedCandidates() {
		if issued >= width {
			return
		}
		if s.tryEnterStage(&s.ops[cand], pl, 0) {
			s.ops[cand].pipeline = pl
			issued++
		}
	}
}

// nextInOrderCandidate returns the program-order next unissued op, or -1.
func (s *Scheduler) nextInOrderCandidate() int {
	for s.nextInOrder < len(s.ops) {
		op := &s.ops[s.nextInOrder]
		if op.pipeline >= 0 || op.done {
			s.nextInOrder++
			continue
		}
		return s.nextInOrder
	}
	return -1
}

// orderedCandidates returns the issuable unissued ops in policy priority
// order: readiness FIFO for ASAP, descending critical-path height (ties by
// program order) for list scheduling. The returned slice aliases the
// scheduler's scratch buffer and is valid until the next call.
func (s *Scheduler) orderedCandidates() []int {
	cands := s.candBuf[:0]
	for i := range s.ops {
		op := &s.ops[i]
		if op.pipeline < 0 && !op.done && s.issuable(i) {
			cands = append(cands, i)
		}
	}
	s.candBuf = cands
	if s.p.Policy == pum.PolicyList {
		// Stable selection sort by height keeps ties in program order
		// without importing sort for a tiny slice.
		for i := 0; i < len(cands); i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if s.ops[cands[j]].height > s.ops[cands[best]].height {
					best = j
				}
			}
			if best != i {
				c := cands[best]
				copy(cands[i+1:best+1], cands[i:best])
				cands[i] = c
			}
		}
	}
	return cands
}

// issuable applies the demand check at issue time when stage 0 is the
// demand stage, so dataflow policies do not issue ops whose operands are
// pending. (For later demand stages the check happens on stage entry.)
func (s *Scheduler) issuable(i int) bool {
	op := &s.ops[i]
	if op.info.Demand == 0 {
		return s.depsCommitted(i)
	}
	return true
}
