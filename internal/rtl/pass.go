package rtl

import (
	"context"
	"fmt"

	"ese/internal/branch"
	"ese/internal/cache"
	"ese/internal/diag"
	"ese/internal/iss"
	"ese/internal/pum"
)

// ctxCheckSteps is how many retired instructions a pass runs between
// context checks, as the IR interpreter does.
const ctxCheckSteps = 4096

// pass is one functional run of a processor process, timed under several
// cache configurations (lanes) at once: the one instruction loop of
// Measure and of the board. Each retired instruction goes to every lane's
// (I-cache, D-cache) pair and to one branch predictor, and every lane
// charges it as a CPU of its configuration would: its class cost, the
// external latency of each miss (an uncached side misses every access),
// and the branch penalty on a misprediction.
type pass struct {
	m     *iss.Machine
	bp    *branch.Stats
	lanes []lane
	limit uint64          // dynamic step bound (0 = none)
	ctx   context.Context // polled every ctxCheckSteps instructions
}

// lane is one cache configuration of a pass.
type lane struct {
	ic, dc *cache.Cache
	timing
	pending uint64 // cycles charged since the last take
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

// addLane adds a configuration: the datasheet costs of model and real
// caches of the given organizations. Its first charge is the pipeline
// fill.
func (ps *pass) addLane(model *pum.PUM, ic, dc cache.Config) {
	tm := timingOf(model)
	ps.lanes = append(ps.lanes, lane{ic: cache.New(ic), dc: cache.New(dc), timing: tm, pending: tm.fill})
}

// run retires instructions of the started machine until it finishes,
// fails, exceeds the step bound or its context ends.
func (ps *pass) run() error {
	var t iss.Trace
	lanes := ps.lanes
	countdown := ctxCheckSteps
	for {
		if err := ps.m.Step(&t); err != nil {
			return err
		}
		if !t.Executed {
			return nil
		}
		pc, cls, daddrs := iss.PCAddr(t.PC), t.Class, t.DAddrs
		mispredict := t.Branch && ps.bp.Resolve(pc, t.Taken)
		for i := range lanes {
			l := &lanes[i]
			c := l.classCost[cls]
			if !l.ic.Access(pc) {
				c += l.extLat
			}
			for _, a := range daddrs {
				if !l.dc.Access(a) {
					c += l.extLat
				}
			}
			if mispredict {
				c += l.brPenalty
			}
			l.pending += c
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

// take returns the cycles lane i charged since the previous take.
func (ps *pass) take(i int) uint64 {
	c := ps.lanes[i].pending
	ps.lanes[i].pending = 0
	return c
}

// mem returns lane i's observed cache statistics in PUM form.
func (ps *pass) mem(i int) pum.MemStats {
	l := &ps.lanes[i]
	return memStats(l.ic, l.dc, l.extLat)
}
