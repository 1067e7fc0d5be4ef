// Package rtl implements the per-instruction reference models of the
// reproduction: the cycle-accurate board (PCAM) that plays the role of the
// paper's on-board measurements, the custom-hardware datapath model, and
// the interpreted ISS baseline. It holds the one instruction-timing loop
// (pass): every retired instruction of the functional machine
// (internal/iss) is counted once by its class, its I-fetch, its data
// operands and its branch outcome, and each lane's timing charges those
// counts. A board lane takes its costs from the PE's PUM, treated as the
// PE's datasheet, and real caches of the board's organization, so the
// difference between the board and the timed TLM is exactly what the
// paper studies — statistical versus actual cache/branch behaviour, plus
// block-boundary scheduling effects. An ISS lane takes the ISS's own
// coarse costs and caches (issTiming).
//
// A processor's retired instruction stream does not depend on its caches,
// and channels are rendezvous, so neither does the sequence of channel
// operations between PEs. One functional pass therefore serves every
// cache configuration of a program: it feeds each retired instruction to
// each distinct cache geometry once and to one branch predictor, and
// charges each configuration its own cycles from the shared counts. Measure
// runs it on a self-contained training program and reports the cache hit
// rates of every configuration and the branch misprediction ratio, from
// which internal/calib builds the calibrated model. RunBoards runs it on a
// whole design, recording each configuration's cycles per segment between
// channel operations, and replays each configuration's segments and
// transactions through tlm's bus on a fresh kernel. Cycles and memory
// statistics are per configuration; the out streams, step counts and the
// branch misprediction ratio are shared. ISSCycles runs it with ISS lanes.
package rtl

import (
	"context"
	"fmt"

	"ese/internal/branch"
	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/iss"
	"ese/internal/pum"
)

// ctxCheckSteps is how many retired instructions a pass runs between
// context checks, as the IR interpreter does.
const ctxCheckSteps = 4096

// timing is a lane's costs: per op class the cycles of one retired
// instruction, the latency a cache side adds per miss when present and per
// access when absent, the branch misprediction penalty, and a one-time
// charge before the first instruction.
type timing struct {
	classCost   [16]uint64
	missLat     uint64
	uncachedLat uint64
	brPenalty   uint64
	fill        uint64
}

// timingOf is a processor datasheet's costs as the board charges them: per
// op class the bottleneck-stage occupancy (at least one cycle), the
// external memory latency on every miss and uncached access, the branch
// misprediction penalty, and the pipeline fill (the first instruction
// traverses the whole pipe).
// A model without pipeline stages, which PUM.Validate rejects, gets no
// fill instead of a panic: calibration validates the model it builds.
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
	tm.missLat = uint64(model.Mem.ExtLatency)
	tm.uncachedLat = tm.missLat
	tm.brPenalty = uint64(model.Branch.Penalty)
	if len(model.Pipelines) > 0 && len(model.Pipelines[0].Stages) > 0 {
		tm.fill = uint64(len(model.Pipelines[0].Stages) - 1)
	}
	return tm
}

// issTiming is the ISS baseline's interpretation of the target's timing.
// The paper observes that the vendor MicroBlaze ISS "did not model memory
// access accurately enough", making it *less* accurate than the timed TLM
// (Table 2). These costs reproduce that: one cycle per instruction but
// multiply (3), divide (32) and call (2), an optimistic uncached latency
// (4 against the board's 8) and a pessimistic miss latency (12), no branch
// penalty and no fill. With issCache's undersized caches the ISS
// underestimates the uncached design and overestimates the heavily cached
// ones — the error shape of the paper.
var issTiming = func() timing {
	tm := timing{missLat: 12, uncachedLat: 4}
	for cls := range tm.classCost {
		tm.classCost[cls] = 1
	}
	tm.classCost[cdfg.ClassMul] = 3
	tm.classCost[cdfg.ClassDiv] = 32
	tm.classCost[cdfg.ClassCall] = 2
	return tm
}()

// issCache is the ISS's cache of a given size: direct-mapped with 8-byte
// lines, whatever the board's organization (size 0 = uncached).
func issCache(size int) cache.Config {
	return cache.Config{Size: size, LineBytes: 8, Assoc: 1}
}

// predictorFor builds the predictor named by the PUM branch model: "2bit"
// is a 512-entry bimodal table, any other name static not-taken.
func predictorFor(name string) (branch.Predictor, error) {
	if name == "2bit" {
		return branch.NewBimodal(512)
	}
	return branch.StaticNotTaken{}, nil
}

// pass is one functional run of a processor process, timed under several
// lanes at once: the one instruction loop of Measure, the board and the
// ISS. Once per retired instruction it counts what every lane shares —
// retired instructions per op class, data accesses and the predictor's
// mispredictions — and feeds the fetch and each data address once to every
// distinct cache. A lane is charged from those counts (take), not per
// instruction.
type pass struct {
	m       *iss.Machine
	bp      *branch.Stats
	lanes   []lane
	icaches []*cache.Cache  // one per distinct present I-cache geometry
	dcaches []*cache.Cache  // one per distinct present D-cache geometry
	retired [16]uint64      // retired instructions per op class
	daccess uint64          // data accesses
	limit   uint64          // dynamic step bound (0 = none)
	ctx     context.Context // polled every ctxCheckSteps instructions
}

// lane is one timing and cache configuration of a pass. Its caches are
// shared with every lane of the same normalized geometry; a nil side is
// absent.
type lane struct {
	ic, dc *cache.Cache
	timing
	iLat, dLat uint64 // per charged access on each side, fixed when the lane is added
	taken      uint64 // cycles returned by take so far
}

// newPass prepares a pass over m; predictor names the branch predictor
// every lane shares.
func newPass(ctx context.Context, m *iss.Machine, predictor string, limit uint64) (*pass, error) {
	pred, err := predictorFor(predictor)
	if err != nil {
		return nil, err
	}
	return &pass{m: m, bp: &branch.Stats{P: pred}, limit: limit, ctx: ctx}, nil
}

// addLane adds a lane of the given costs and real caches of the given
// organizations, before the pass runs. A present cache side charges the
// miss latency per miss, an absent one the uncached latency per access.
// Its first charge is the fill.
func (ps *pass) addLane(tm timing, ic, dc cache.Config) {
	l := lane{timing: tm, iLat: tm.uncachedLat, dLat: tm.uncachedLat}
	if l.ic = sharedCache(&ps.icaches, ic); l.ic != nil {
		l.iLat = tm.missLat
	}
	if l.dc = sharedCache(&ps.dcaches, dc); l.dc != nil {
		l.dLat = tm.missLat
	}
	ps.lanes = append(ps.lanes, l)
}

// sharedCache returns the cache of caches with cfg's normalized geometry,
// adding one when there is none, or nil when cfg has no lines (an absent
// side touches no cache).
func sharedCache(caches *[]*cache.Cache, cfg cache.Config) *cache.Cache {
	c := cache.New(cfg)
	if !c.Enabled() {
		return nil
	}
	for _, o := range *caches {
		if o.Config() == c.Config() {
			return o
		}
	}
	*caches = append(*caches, c)
	return c
}

// run retires instructions of the started machine until it finishes,
// fails, exceeds the step bound or its context ends.
func (ps *pass) run() error {
	var t iss.Trace
	icaches, dcaches := ps.icaches, ps.dcaches
	countdown := ctxCheckSteps
	for {
		if err := ps.m.Step(&t); err != nil {
			return err
		}
		if !t.Executed {
			return nil
		}
		pc := iss.PCAddr(t.PC)
		ps.retired[t.Class]++
		for _, c := range icaches {
			c.Access(pc)
		}
		for _, a := range t.DAddrs {
			for _, c := range dcaches {
				c.Access(a)
			}
		}
		ps.daccess += uint64(len(t.DAddrs))
		if t.Branch {
			ps.bp.Resolve(pc, t.Taken)
		}
		if t.Done {
			return nil
		}
		if ps.limit != 0 && ps.m.Steps > ps.limit {
			return fmt.Errorf("rtl: step limit %d exceeded", ps.limit)
		}
		if countdown--; countdown == 0 {
			countdown = ctxCheckSteps
			if err := diag.FromContext(ps.ctx); err != nil {
				return err
			}
		}
	}
}

// take returns the cycles lane i charged since the previous take. A
// lane's cycles so far are, in closed form, its fill, each op class's
// retired count times the class cost, each side's charged accesses (the
// shared cache's misses, or every access of an absent side) times the
// side's latency, and the mispredictions times the branch penalty.
func (ps *pass) take(i int) uint64 {
	l := &ps.lanes[i]
	total := l.fill + ps.bp.Mispredict*l.brPenalty
	var fetches uint64
	for cls, n := range ps.retired {
		total += n * l.classCost[cls]
		fetches += n
	}
	total += charged(l.ic, fetches)*l.iLat + charged(l.dc, ps.daccess)*l.dLat
	c := total - l.taken
	l.taken = total
	return c
}

// charged is the accesses a cache side pays its latency on: the misses of
// a present cache, every access of an absent one.
func charged(c *cache.Cache, accesses uint64) uint64 {
	if c == nil {
		return accesses
	}
	return c.Misses
}

// mem returns lane i's observed cache statistics in PUM form, the raw
// material of calibration. An absent cache side (size 0 in a mixed I/D
// geometry) is reported as hit rate 0: on the board every access on that
// side pays the external latency, and the statistical model must say the
// same — the idle-cache HitRate default of 1.0 would make estimation
// charge nothing for a path the board charges ExtLatency per access.
func (ps *pass) mem(i int) pum.MemStats {
	l := &ps.lanes[i]
	st := pum.MemStats{
		IMissPenalty: float64(l.iLat),
		DMissPenalty: float64(l.dLat),
	}
	if l.ic != nil {
		st.IHitRate = l.ic.HitRate()
	}
	if l.dc != nil {
		st.DHitRate = l.dc.HitRate()
	}
	return st
}

// ISSCycles runs the interpreted instruction-set simulator baseline — the
// "ISS" column of Tables 1 and 2 — on the self-contained process entry of
// isa and returns its cycles under each cache configuration, in cfgs
// order. One functional run times every configuration as one lane of
// issTiming's costs and issCache's caches of the configuration's sizes.
// ctx bounds the run, which polls it every few thousand instructions.
func ISSCycles(ctx context.Context, isa *iss.Program, entry string, cfgs []pum.CacheCfg) ([]uint64, error) {
	m := iss.NewMachine(isa)
	ps, err := newPass(ctx, m, "", 0)
	if err != nil {
		return nil, err
	}
	for _, cc := range cfgs {
		ps.addLane(issTiming, issCache(cc.ISize), issCache(cc.DSize))
	}
	if err := m.Start(entry); err != nil {
		return nil, err
	}
	if err := ps.run(); err != nil {
		return nil, err
	}
	cycles := make([]uint64, len(cfgs))
	for i := range cycles {
		cycles[i] = ps.take(i)
	}
	return cycles, nil
}
