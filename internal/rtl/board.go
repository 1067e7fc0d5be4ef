package rtl

import (
	"context"
	"fmt"
	"time"

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
	// Wall is the host time of the functional pass plus this design's
	// replay; a multi-design pass shares its functional pass.
	Wall  time.Duration
	PEs   map[string]*PEResult
	Steps uint64
}

// EndCycles converts the simulated end time into cycles of the given clock.
func (r *BoardResult) EndCycles(clockHz int64) uint64 {
	period := 1_000_000_000_000 / uint64(clockHz)
	return uint64(r.EndPs) / period
}

// RunBoard simulates the whole design cycle-accurately: processor PEs run
// generated ISA code through the instruction loop (pass) with real caches
// and branch prediction; hardware PEs execute their exact datapath
// schedules; all PEs communicate over the arbitrated bus. It is RunBoards
// of the one design, under no deadline.
func RunBoard(d *platform.Design, limit uint64) (*BoardResult, error) {
	rs, err := RunBoards(context.Background(), []*platform.Design{d}, limit)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunBoards simulates designs that map one program onto the same PEs —
// typically one design at several cache configurations — with one
// functional pass, and returns one result per design, in order.
//
// The pass runs every process once on an untimed bus. A processor's
// retired instruction stream and the channel sequence between PEs do not
// depend on the caches or on any timing (channels are rendezvous, as
// tlm.Recording relies on), so each processor instruction is timed under
// every design's datasheet and caches (see pass), and each hardware block
// under every design's datapath schedule. Each PE records, per segment
// between channel operations, the cycles each design charges it. Every
// design then replays its own segments and the shared transactions
// through tlm.Replay on a fresh kernel and timed bus, which makes exactly
// the kernel and bus calls a per-design board run makes: the end time and
// all per-PE results equal those of running each design alone.
//
// The designs must share the program and the PEs' names, kinds and
// entries, and their processors a branch predictor; their models, caches,
// clocks and bus may differ. limit bounds each process's dynamic steps
// (0 = none). ctx bounds the pass, which polls it every few thousand
// instructions, and the replays.
func RunBoards(ctx context.Context, ds []*platform.Design, limit uint64) ([]*BoardResult, error) {
	if len(ds) == 0 {
		return nil, nil
	}
	ref := ds[0]
	for _, d := range ds {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if err := d.ValidateChannels(); err != nil {
			return nil, err
		}
		if err := sameMapping(ref, d); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	runs, err := functionalPass(ctx, ds, limit)
	if err != nil {
		return nil, err
	}
	passWall := time.Since(start)

	out := make([]*BoardResult, len(ds))
	procs := make([]tlm.Pooled, len(runs))
	for di, d := range ds {
		for i, r := range runs {
			procs[i] = tlm.Pooled{Cycles: r.cycles[di], Trans: r.trans}
		}
		rep, err := tlm.Replay(ctx, d, procs)
		if err != nil {
			return nil, fmt.Errorf("rtl: %w", err)
		}
		res := &BoardResult{Design: d.Name, EndPs: rep.EndPs, Wall: passWall + rep.Wall, PEs: make(map[string]*PEResult, len(runs))}
		for i, r := range runs {
			pe := d.PEs[i]
			pr := &PEResult{Name: pe.Name, Kind: pe.Kind, Out: append([]int32(nil), r.out...), Steps: r.steps}
			for _, c := range r.cycles[di] {
				pr.Cycles += c
			}
			if r.cpu != nil {
				pr.Mem = r.cpu.mem(di)
				pr.BranchMiss = r.cpu.bp.MissRate()
			}
			res.PEs[pe.Name] = pr
			res.Steps += r.steps
		}
		out[di] = res
	}
	return out, nil
}

// sameMapping reports why d cannot share ref's functional pass.
func sameMapping(ref, d *platform.Design) error {
	if d.Program != ref.Program || len(d.PEs) != len(ref.PEs) {
		return fmt.Errorf("rtl: designs %s and %s do not map one program onto the same PEs", ref.Name, d.Name)
	}
	for i, pe := range d.PEs {
		r := ref.PEs[i]
		if pe.Name != r.Name || pe.Kind != r.Kind || pe.Entry != r.Entry {
			return fmt.Errorf("rtl: designs %s and %s differ in PE %d (%s vs %s)", ref.Name, d.Name, i, r.Name, pe.Name)
		}
		if pe.Kind == platform.Processor && pe.PUM.Branch.Predictor != r.PUM.Branch.Predictor {
			return fmt.Errorf("rtl: designs %s and %s differ in PE %s's branch predictor", ref.Name, d.Name, pe.Name)
		}
	}
	return nil
}

// peRun is one PE's share of a functional pass: the transaction that ends
// each segment, and per design the cycles of each segment.
type peRun struct {
	pe     *platform.PE
	trans  []tlm.Transaction
	cycles [][]uint64         // [design][segment]
	take   func(i int) uint64 // what design i charged since the last cut
	out    []int32
	steps  uint64
	cpu    *pass // processor PEs
	err    error
}

// cut closes the current segment with the transaction t.
func (r *peRun) cut(t tlm.Transaction) {
	r.trans = append(r.trans, t)
	for i := range r.cycles {
		r.cycles[i] = append(r.cycles[i], r.take(i))
	}
}

// channels returns the PE's send and receive callbacks on process p: each
// closes the current segment with its transaction, then performs it on
// the bus.
func (r *peRun) channels(p *sim.Process, bus *tlm.Bus) (send, recv func(int, []int32) error) {
	send = func(ch int, data []int32) error {
		r.cut(tlm.Transaction{Op: tlm.OpSend, Ch: ch, Words: len(data)})
		bus.Send(p, ch, data)
		return nil
	}
	recv = func(ch int, buf []int32) error {
		r.cut(tlm.Transaction{Op: tlm.OpRecv, Ch: ch, Words: len(buf)})
		bus.Recv(p, ch, buf)
		return nil
	}
	return send, recv
}

// functionalPass runs every process of the designs once on an untimed bus
// and returns, per PE of ds[0], its transactions and per-design segment
// cycles, out stream and steps.
func functionalPass(ctx context.Context, ds []*platform.Design, limit uint64) ([]*peRun, error) {
	ref := ds[0]
	var isa *iss.Program
	for _, pe := range ref.PEs {
		if pe.Kind == platform.Processor {
			var err error
			if isa, err = iss.Generate(ref.Program); err != nil {
				return nil, err
			}
			break
		}
	}
	k := sim.NewKernel()
	bus := tlm.NewBus(k, ref.Bus, false)
	runs := make([]*peRun, len(ref.PEs))
	fail := func(r *peRun, err error) {
		r.err = err
		k.Stop()
	}
	for i, pe := range ref.PEs {
		r := &peRun{pe: pe, cycles: make([][]uint64, len(ds))}
		runs[i] = r
		switch pe.Kind {
		case platform.Processor:
			m := iss.NewMachine(isa)
			ps, err := newPass(ctx, m, pe.PUM.Branch.Predictor, limit)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				dpe := d.PEs[i]
				ps.addLane(timingOf(dpe.PUM), dpe.ICache, dpe.DCache)
			}
			r.cpu, r.take = ps, ps.take
			k.Spawn(pe.Name, func(p *sim.Process) {
				m.Send, m.Recv = r.channels(p, bus)
				if err := m.Start(pe.Entry); err != nil {
					fail(r, err)
					return
				}
				if err := ps.run(); err != nil {
					fail(r, err)
					return
				}
				r.cut(tlm.Transaction{Op: tlm.OpEnd})
				r.out, r.steps = m.Out, m.Steps
			})
		case platform.HWUnit:
			hw := newHWPass(ref.Program, ds, i)
			hw.m.Limit, hw.m.Ctx = limit, ctx
			r.take = hw.take
			k.Spawn(pe.Name, func(p *sim.Process) {
				hw.m.Send, hw.m.Recv = r.channels(p, bus)
				if err := hw.m.Run(pe.Entry); err != nil {
					fail(r, err)
					return
				}
				r.cut(tlm.Transaction{Op: tlm.OpEnd})
				r.out, r.steps = hw.m.Out, hw.m.Steps
			})
		}
	}
	_, err := k.RunCtx(ctx)
	for _, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("rtl: PE %s: %w", r.pe.Name, r.err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("rtl: %s: %w", ref.Name, err)
	}
	return runs, nil
}
