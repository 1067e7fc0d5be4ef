package core

import (
	"testing"
	"testing/quick"

	"ese/internal/cdfg"
	"ese/internal/pum"
)

// randomDFG builds a structurally valid random block + DFG: opcodes from
// the schedulable set, edges only pointing backwards.
func randomDFG(seedBytes []byte) *cdfg.DFG {
	ops := []cdfg.Opcode{
		cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpDiv, cdfg.OpShl,
		cdfg.OpLoad, cdfg.OpStore, cdfg.OpMov, cdfg.OpCmpLt,
	}
	n := len(seedBytes)
	if n == 0 {
		n = 1
	}
	if n > 40 {
		n = 40
	}
	b := &cdfg.Block{}
	d := &cdfg.DFG{Block: b, Deps: make([][]int, n)}
	for i := 0; i < n; i++ {
		var sb byte
		if i < len(seedBytes) {
			sb = seedBytes[i]
		}
		b.Instrs = append(b.Instrs, cdfg.Instr{Op: ops[int(sb)%len(ops)]})
		// Up to two backward deps derived from the seed byte.
		if i > 0 && sb&1 == 1 {
			d.Deps[i] = append(d.Deps[i], int(sb)%i)
		}
		if i > 1 && sb&2 == 2 {
			j := int(sb/3) % i
			if len(d.Deps[i]) == 0 || d.Deps[i][0] != j {
				d.Deps[i] = append(d.Deps[i], j)
			}
		}
	}
	return d
}

// costOf returns the total stage cycles of an op under the model.
func costOf(p *pum.PUM, op cdfg.Opcode) int {
	info := p.Ops[cdfg.OpClass(op)]
	total := 0
	for _, su := range info.Stages {
		total += su.Cycles
	}
	return total
}

// serialCost is the non-overlappable latency of an op: the cycles of its
// demand..commit stage span. Dependent ops cannot overlap this part, so the
// longest chain of serialCost weights lower-bounds every legal schedule.
func serialCost(p *pum.PUM, op cdfg.Opcode) int {
	info := p.Ops[cdfg.OpClass(op)]
	total := 0
	for si := info.Demand; si <= info.Commit; si++ {
		total += info.Stages[si].Cycles
	}
	return total
}

// criticalPath returns the longest dependency chain in serialCost weights —
// a lower bound on any legal schedule of the DFG.
func criticalPath(d *cdfg.DFG, p *pum.PUM) int {
	n := len(d.Block.Instrs)
	longest := make([]int, n)
	best := 0
	for i := 0; i < n; i++ {
		w := serialCost(p, d.Block.Instrs[i].Op)
		longest[i] = w
		for _, j := range d.Deps[i] {
			if longest[j]+w > longest[i] {
				longest[i] = longest[j] + w
			}
		}
		if longest[i] > best {
			best = longest[i]
		}
	}
	return best
}

// serialBound returns the sum of bottleneck-stage costs plus pipeline
// depth — an upper bound for the in-order single-issue schedule.
func serialBound(d *cdfg.DFG, p *pum.PUM) int {
	total := len(p.Pipelines[0].Stages) + 1
	for i := range d.Block.Instrs {
		total += costOf(p, d.Block.Instrs[i].Op)
	}
	return total
}

func TestPropertyScheduleWithinBounds(t *testing.T) {
	models := []*pum.PUM{pum.MicroBlaze(), pum.CustomHW("hw", 1), pum.DualIssue()}
	f := func(seed []byte) bool {
		d := randomDFG(seed)
		for _, m := range models {
			got := Schedule(d, m)
			// Lower bound: the longest dependency chain's serial latency.
			if got < criticalPath(d, m) {
				t.Logf("%s: schedule %d below critical path %d", m.Name, got, criticalPath(d, m))
				return false
			}
			// Upper bound: an in-order machine never exceeds fully serial
			// execution plus fill; parallel machines can only be faster
			// than serial-with-stalls times a safety factor.
			if got > serialBound(d, m)*2 {
				t.Logf("%s: schedule %d above serial bound %d", m.Name, got, serialBound(d, m))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// doubled returns a copy of p with every FU quantity and the first
// pipeline's issue width doubled; the scheduling policy stays p's.
func doubled(p *pum.PUM) *pum.PUM {
	rich := p.Clone()
	for i := range rich.FUs {
		rich.FUs[i].Quantity *= 2
	}
	rich.Pipelines[0].IssueWidth *= 2
	return rich
}

func TestPropertyMoreResourcesNeverSlower(t *testing.T) {
	// On the in-order machine, doubling every FU quantity and the issue
	// width cannot make a schedule longer: issue order is fixed, and every
	// op's issue cycle only loses structural constraints. The list-
	// scheduled datapath has no such guarantee (see
	// TestListSchedulingResourceAnomaly), so the property is asserted on
	// PolicyInOrder only.
	base := pum.MicroBlaze()
	if base.Policy != pum.PolicyInOrder {
		t.Fatalf("microblaze policy = %v, want in-order", base.Policy)
	}
	rich := doubled(base)
	f := func(seed []byte) bool {
		d := randomDFG(seed)
		return Schedule(d, rich) <= Schedule(d, base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestListSchedulingResourceAnomaly(t *testing.T) {
	// Greedy list scheduling exhibits Graham's scheduling anomalies: more
	// resources can lengthen a schedule, because an op issued earlier
	// steers the priority order elsewhere. This DFG, found by random
	// search, takes 20 cycles on the custom-HW datapath and 21 with twice
	// the FUs and issue width. A change to the list scheduler that moves
	// either figure should say why here.
	base := pum.CustomHW("hw", 1)
	if base.Policy != pum.PolicyList {
		t.Fatalf("custom-HW policy = %v, want list", base.Policy)
	}
	d := randomDFG([]byte{0xf3, 0xdc, 0x2f, 0x13, 0x22, 0xad, 0x38, 0x5d, 0x6d, 0x5c, 0x38, 0x08, 0xb2, 0x3a})
	if got, rich := Schedule(d, base), Schedule(d, doubled(base)); got != 20 || rich != 21 {
		t.Fatalf("anomaly input schedules in %d cycles, %d with doubled resources; want 20 and 21", got, rich)
	}
}

func TestPropertyExtraDepsNeverFasterInOrder(t *testing.T) {
	// On the in-order machine, adding a dependency edge can only add
	// stalls (issue order is fixed), so the schedule is monotone in the
	// dependence relation. Note this is NOT true for the list-scheduled
	// datapath: greedy list scheduling exhibits Graham's scheduling
	// anomalies, where extra constraints occasionally steer the heuristic
	// to a better schedule — the quick.Check below found such cases when
	// this property was (wrongly) asserted for PolicyList.
	m := pum.MicroBlaze()
	f := func(seed []byte, at, to uint8) bool {
		d := randomDFG(seed)
		n := len(d.Block.Instrs)
		if n < 2 {
			return true
		}
		before := Schedule(d, m)
		i := 1 + int(at)%(n-1)
		j := int(to) % i
		d.Deps[i] = append(d.Deps[i], j)
		after := Schedule(d, m)
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDelayMonotoneInMissRates(t *testing.T) {
	// Worse hit rates can only increase the block delay estimate.
	base, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed []byte, dHit, iHit uint8) bool {
		d := randomDFG(seed)
		lo := base.Clone()
		hi := base.Clone()
		loRate := 0.5 + float64(dHit%50)/100 // in [0.5, 1)
		hiRate := loRate + 0.01
		stLo, stHi := lo.Mem.Current, hi.Mem.Current
		stLo.DHitRate, stHi.DHitRate = loRate, hiRate
		stLo.IHitRate, stHi.IHitRate = loRate, hiRate
		lo.Mem.Current, hi.Mem.Current = stLo, stHi
		worse := BlockDelay(d.Block, lo, FullDetail).Total
		better := BlockDelay(d.Block, hi, FullDetail).Total
		return better <= worse
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapCompensationBounds(t *testing.T) {
	// The compensated schedule is never below the issue bound and never
	// above the faithful schedule.
	m, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed []byte) bool {
		d := randomDFG(seed)
		faith := BlockDelay(d.Block, m, Detail{})
		comp := BlockDelay(d.Block, m, Detail{PipelineOverlap: true})
		if comp.Sched > faith.Sched {
			return false
		}
		width := 0
		for _, pl := range m.Pipelines {
			width += pl.IssueWidth
		}
		floor := (faith.Ops + width - 1) / width
		return comp.Sched >= floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
