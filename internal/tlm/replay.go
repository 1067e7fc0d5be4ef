package tlm

import (
	"context"
	"fmt"
	"math"
	"time"

	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/interp"
	"ese/internal/platform"
	"ese/internal/sim"
)

// Recording is the delay-independent part of one timed run: per process,
// the blocks it executed between consecutive channel operations (a
// segment) and the operation that ends each segment, plus its out() stream
// and step count.
//
// Channels are point-to-point rendezvous (platform.ValidateChannels) and
// the IR's only intrinsics are send, recv and out, so a process's block
// sequence between channel operations is fixed by its workload and does
// not depend on any delay. A timed run of the same program under other
// delays therefore needs only each segment's pooled delay,
// Σ count(b)·delay(b), and the transactions: Run replays them through the
// bus on a fresh kernel with the very kernel calls the simulation makes,
// instead of interpreting the program again.
//
// The zero Recording is empty. Run fills an empty Recording passed in
// Options.Recording and replays a filled one. A filled Recording is
// read-only and may be shared by concurrent runs; its block keys belong
// to the one *cdfg.Program it was recorded from.
type Recording struct {
	prog     *cdfg.Program
	procs    []procTrace // in spawn order: d.PEs, one process each
	maxWords int         // the largest transaction of any process
}

// Filled reports whether a run has recorded into rec.
func (rec *Recording) Filled() bool { return rec != nil && rec.prog != nil }

// procTrace is one process's share of a Recording.
type procTrace struct {
	key   string
	segs  []segment // in execution order; the last one ends the process
	out   []int32
	steps uint64
}

// segment is the work of one process between two channel operations: how
// often each block ran, and the operation that ends it.
type segment struct {
	counts []blockCount
	op     opKind
	ch     int
	words  int
}

// blockCount is one block's execution count within a segment.
type blockCount struct {
	block *cdfg.Block
	n     uint64
}

type opKind uint8

const (
	opEnd opKind = iota // the process returned
	opSend
	opRecv
)

// replayable reports whether a run with these options can be recorded or
// replayed: a timed run with transaction-boundary waits on plain processes
// (no RTOS PE, whose preemption depends on timing), with no step limit and
// nothing that observes individual blocks or busy intervals (profile,
// waveform, timeline).
func replayable(d *platform.Design, opts Options) bool {
	if !opts.Timed || opts.WaitMode != WaitAtTransactions || opts.StepLimit != 0 ||
		opts.Profile || opts.Trace != nil || opts.Events != nil {
		return false
	}
	for _, pe := range d.PEs {
		if len(pe.Tasks) > 0 {
			return false
		}
	}
	return true
}

// recorder builds one process's trace during a simulation from its
// engine's block counters, which it switches on.
type recorder struct {
	tr   procTrace
	seen map[*cdfg.Block]uint64 // block counts at the previous cut
}

func newRecorder(key string, m interp.Engine) *recorder {
	m.EnableProfile()
	return &recorder{tr: procTrace{key: key}, seen: make(map[*cdfg.Block]uint64)}
}

// cut closes the current segment with the given operation. A nil
// recorder records nothing.
func (r *recorder) cut(m interp.Engine, op opKind, ch, words int) {
	if r == nil {
		return
	}
	var counts []blockCount
	for b, n := range m.BlockCountsMap() {
		delta := n - r.seen[b]
		if delta == 0 {
			continue
		}
		r.seen[b] = n
		counts = append(counts, blockCount{block: b, n: delta})
	}
	r.tr.segs = append(r.tr.segs, segment{counts: counts, op: op, ch: ch, words: words})
}

// fill completes rec from the recorders of a successful run.
func (rec *Recording) fill(d *platform.Design, runs []*procRun) {
	procs := make([]procTrace, len(runs))
	maxWords := 0
	for i, pr := range runs {
		tr := pr.rec.tr
		tr.out = append([]int32(nil), pr.m.OutStream()...)
		tr.steps = pr.m.StepCount()
		for _, s := range tr.segs {
			maxWords = max(maxWords, s.words)
		}
		procs[i] = tr
	}
	*rec = Recording{prog: d.Program, procs: procs, maxWords: maxWords}
}

// maxExact bounds the delays a replay accepts: below 2^53 every integer
// is a float64, so integer sums are exact in any order.
const maxExact = 1 << 53

// segmentDelays returns each recorded segment's pooled delay under the
// run's per-PE delay maps, indexed like rec.procs and their segments. ok
// is false when rec was not recorded from d's program and processes, or
// when a delay is not a non-negative integer or a segment sum reaches
// 2^53: only with integer delays and sums below 2^53 does Σ count·delay
// equal the engines' block-by-block float accumulation bit for bit (the
// pipeline's block totals are integers, core.ComposeEstimate rounds them).
func (rec *Recording) segmentDelays(d *platform.Design, delays map[*platform.PE]map[*cdfg.Block]float64) ([][]float64, bool) {
	if rec.prog != d.Program || len(rec.procs) != len(d.PEs) {
		return nil, false
	}
	pends := make([][]float64, len(rec.procs))
	for i, pe := range d.PEs {
		tr := &rec.procs[i]
		if tr.key != pe.Name {
			return nil, false
		}
		dm := delays[pe]
		pend := make([]float64, len(tr.segs))
		for j, s := range tr.segs {
			sum := 0.0
			for _, c := range s.counts {
				v := dm[c.block]
				if !(v >= 0 && v < maxExact && v == math.Trunc(v)) {
					return nil, false
				}
				sum += float64(c.n) * v
			}
			if sum >= maxExact {
				return nil, false
			}
			pend[j] = sum
		}
		pends[i] = pend
	}
	return pends, true
}

// replay runs d's timed model from rec with the segment delays pends:
// each process waits out a segment's delay when it is positive and then
// performs the segment's transaction on the bus — the kernel calls
// spawnProcess makes, in the same order, so dispatch order, bus
// arbitration, end time and every kernel and bus counter come out as the
// simulation's. All payloads share one zero buffer: only their lengths
// matter to timing.
func replay(ctx context.Context, d *platform.Design, rec *Recording, pends [][]float64, opts Options, res *Result) (*Result, error) {
	k := sim.NewKernel()
	bus := NewBus(k, d.Bus, true)
	buf := make([]int32, rec.maxWords)
	wallStart := time.Now()
	for i, pe := range d.PEs {
		tr, pend := &rec.procs[i], pends[i]
		periodPs := sim.Time(1_000_000_000_000 / pe.PUM.ClockHz)
		k.Spawn(tr.key, func(p *sim.Process) {
			for j, s := range tr.segs {
				if pending := pend[j]; pending > 0 {
					p.Wait(sim.Time(pending) * periodPs)
					res.CyclesByPE[tr.key] += uint64(pending)
				}
				switch s.op {
				case opSend:
					bus.Send(p, s.ch, buf[:s.words])
				case opRecv:
					bus.Recv(p, s.ch, buf[:s.words])
				}
			}
		})
	}
	end, err := k.RunCtx(ctx)
	res.Wall = time.Since(wallStart)
	res.EndPs = end
	res.BusWords = bus.Words
	if err == nil {
		for _, tr := range rec.procs {
			res.OutByPE[tr.key] = append([]int32(nil), tr.out...)
			res.Steps += tr.steps
		}
	}
	report(opts.Metrics, res, bus, k)
	if err != nil {
		wrapped := fmt.Errorf("tlm: %s: %w", d.Name, err)
		if diag.IsCancellation(err) {
			return res, wrapped
		}
		return nil, wrapped
	}
	return res, nil
}
