package rtl

import (
	"fmt"
	"time"

	"ese/internal/cdfg"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/sim"
	"ese/internal/tlm"
)

// PEResult is the per-PE outcome of a board run.
type PEResult struct {
	Name   string
	Kind   platform.PEKind
	Cycles uint64 // computation cycles at the PE clock
	Out    []int32
	Steps  uint64
	// Observed statistics (Processor PEs), as `esetlm -engine board`
	// prints them.
	Mem        pum.MemStats
	BranchMiss float64
}

// BoardResult is the outcome of a full-system cycle-accurate simulation —
// the stand-in for the paper's on-board measurement.
type BoardResult struct {
	Design string
	EndPs  sim.Time
	Wall   time.Duration
	PEs    map[string]*PEResult
	Steps  uint64
}

// EndCycles converts the simulated end time into cycles of the given clock.
func (r *BoardResult) EndCycles(clockHz int64) uint64 {
	period := 1_000_000_000_000 / uint64(clockHz)
	return uint64(r.EndPs) / period
}

// RunBoard simulates the whole design cycle-accurately: processor PEs run
// generated ISA code through the pipeline model with real caches and branch
// prediction; hardware PEs execute their exact datapath schedules; all PEs
// communicate over the arbitrated bus. Processes synchronize with the
// kernel at transaction boundaries, which is exact for rendezvous-only
// interaction.
func RunBoard(d *platform.Design, limit uint64) (*BoardResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := d.ValidateChannels(); err != nil {
		return nil, err
	}
	res := &BoardResult{Design: d.Name, PEs: make(map[string]*PEResult)}

	var isa *iss.Program
	for _, pe := range d.PEs {
		if pe.Kind == platform.Processor {
			var err error
			isa, err = iss.Generate(d.Program)
			if err != nil {
				return nil, err
			}
			break
		}
	}

	k := sim.NewKernel()
	bus := tlm.NewBus(k, d.Bus, true)
	type peRun struct {
		pe  *platform.PE
		pr  *PEResult
		cpu *CPU
		hw  *HW
		err error
	}
	var runs []*peRun
	start := time.Now()
	for _, pe := range d.PEs {
		pe := pe
		pr := &PEResult{Name: pe.Name, Kind: pe.Kind}
		res.PEs[pe.Name] = pr
		r := &peRun{pe: pe, pr: pr}
		runs = append(runs, r)
		periodPs := sim.Time(1_000_000_000_000 / pe.PUM.ClockHz)

		switch pe.Kind {
		case platform.Processor:
			m := iss.NewMachine(isa)
			cpu, err := NewCPU(m, CPUConfig{
				Model:  pe.PUM,
				ICache: pe.ICache,
				DCache: pe.DCache,
			})
			if err != nil {
				return nil, err
			}
			r.cpu = cpu
			k.Spawn(pe.Name, func(p *sim.Process) {
				var pending uint64
				drain := func() {
					if pending > 0 {
						p.Wait(sim.Time(pending) * periodPs)
						pending = 0
					}
				}
				m.Send = func(ch int, data []int32) error {
					drain()
					bus.Send(p, ch, data)
					return nil
				}
				m.Recv = func(ch int, buf []int32) error {
					drain()
					bus.Recv(p, ch, buf)
					return nil
				}
				if err := m.Start(pe.Entry); err != nil {
					r.err = err
					k.Stop()
					return
				}
				pending = cpu.fillCost
				for {
					cost, done, err := cpu.StepTimed()
					if err != nil {
						r.err = err
						k.Stop()
						return
					}
					pending += cost
					if done {
						break
					}
					if limit != 0 && m.Steps > limit {
						r.err = fmt.Errorf("rtl: %s exceeded step limit", pe.Name)
						k.Stop()
						return
					}
				}
				drain()
			})
		case platform.HWUnit:
			hw := NewHW(d.Program, pe.PUM)
			r.hw = hw
			k.Spawn(pe.Name, func(p *sim.Process) {
				var pending float64
				drain := func() {
					if pending > 0 {
						p.Wait(sim.Time(pending) * periodPs)
						hw.Cycles += uint64(pending)
						pending = 0
					}
				}
				hw.M.Limit = limit
				hw.M.OnBlock = func(b *cdfg.Block) error { pending += hw.Delay(b); return nil }
				hw.M.Send = func(ch int, data []int32) error {
					drain()
					bus.Send(p, ch, data)
					return nil
				}
				hw.M.Recv = func(ch int, buf []int32) error {
					drain()
					bus.Recv(p, ch, buf)
					return nil
				}
				if err := hw.M.Run(pe.Entry); err != nil {
					r.err = err
					k.Stop()
					return
				}
				drain()
			})
		}
	}
	end, err := k.Run()
	res.Wall = time.Since(start)
	res.EndPs = end
	for _, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("rtl: PE %s: %w", r.pe.Name, r.err)
		}
		switch {
		case r.cpu != nil:
			r.pr.Cycles = r.cpu.Cycles
			r.pr.Out = append([]int32(nil), r.cpu.M.Out...)
			r.pr.Steps = r.cpu.M.Steps
			r.pr.Mem = r.cpu.MemStatsSnapshot()
			r.pr.BranchMiss = r.cpu.BP.MissRate()
			res.Steps += r.cpu.M.Steps
		case r.hw != nil:
			r.pr.Cycles = r.hw.Cycles
			r.pr.Out = append([]int32(nil), r.hw.M.Out...)
			r.pr.Steps = r.hw.M.Steps
			res.Steps += r.hw.M.Steps
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rtl: %s: %w", d.Name, err)
	}
	return res, nil
}
