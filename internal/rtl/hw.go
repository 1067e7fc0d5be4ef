package rtl

import (
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/interp"
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
	M      *interp.Machine
	Cycles uint64
	delays map[*cdfg.Block]float64
}

// NewHW builds the hardware model for a process of prog on the given
// custom-hardware PUM.
func NewHW(prog *cdfg.Program, model *pum.PUM) *HW {
	h := &HW{
		M:      interp.New(prog),
		delays: make(map[*cdfg.Block]float64, prog.NumBlocks()),
	}
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
