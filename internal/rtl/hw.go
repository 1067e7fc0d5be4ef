package rtl

import (
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/pum"
)

// HW is the cycle-accurate custom-hardware model. A synthesized unit
// executes each basic block as the FSM produced by list scheduling on its
// datapath, so the schedule computed by the estimation engine *without*
// statistical terms is its exact cycle count (storage is single-cycle block
// RAM and there is no cache hierarchy or speculation). The board model
// therefore executes the process's CDFG and charges exactly that schedule
// per block.
type HW struct {
	delays map[*cdfg.Block]float64
}

// NewHW builds the hardware model for a process of prog on the given
// custom-hardware PUM.
func NewHW(prog *cdfg.Program, model *pum.PUM) *HW {
	h := &HW{delays: make(map[*cdfg.Block]float64, prog.NumBlocks())}
	s := core.NewScheduler(model)
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			h.delays[b] = float64(s.ScheduleBlock(b).Sched)
		}
	}
	return h
}

// Delay returns the exact cycle cost of one block execution.
func (h *HW) Delay(b *cdfg.Block) float64 { return h.delays[b] }

// hwPass is a hardware PE's share of a board pass: one interpreter run of
// its process, each executed block charged under every design's schedule.
// Designs whose models have one datapath fingerprint schedule every block
// identically (pum.DatapathFingerprint) and share one HW model.
type hwPass struct {
	m       *interp.Machine
	models  []*HW
	of      []int     // design -> models index
	block   []float64 // the current block's delay per model
	pending []float64 // per design, charged since the last take
}

// newHWPass prepares the pass of PE pe of the designs ds over prog.
func newHWPass(prog *cdfg.Program, ds []*platform.Design, pe int) *hwPass {
	h := &hwPass{m: interp.New(prog), of: make([]int, len(ds)), pending: make([]float64, len(ds))}
	seen := make(map[pum.Fingerprint]int)
	for i, d := range ds {
		model := d.PEs[pe].PUM
		fp := model.DatapathFingerprint()
		j, ok := seen[fp]
		if !ok {
			j = len(h.models)
			seen[fp] = j
			h.models = append(h.models, NewHW(prog, model))
		}
		h.of[i] = j
	}
	h.block = make([]float64, len(h.models))
	h.m.OnBlock = func(b *cdfg.Block) error {
		for j, hw := range h.models {
			h.block[j] = hw.Delay(b)
		}
		for i, j := range h.of {
			h.pending[i] += h.block[j]
		}
		return nil
	}
	return h
}

// take returns the whole cycles design i charged since the previous take.
func (h *hwPass) take(i int) uint64 {
	c := uint64(h.pending[i])
	h.pending[i] = 0
	return c
}
