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
// segment) and the transaction that ends each segment, plus its out()
// stream and step count.
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
// read-only and may be shared by concurrent runs; its block indices
// (dense program order, as in the delay tables) belong to the one
// *cdfg.Program it was recorded from.
type Recording struct {
	prog  *cdfg.Program
	procs []procTrace // in spawn order: d.PEs, one process each
}

// Filled reports whether a run has recorded into rec.
func (rec *Recording) Filled() bool { return rec != nil && rec.prog != nil }

// procTrace is one process's share of a Recording: per segment, in
// execution order, the block counts and the transaction that ends it.
type procTrace struct {
	key    string
	counts [][]blockCount
	trans  []Transaction
	out    []int32
	steps  uint64
}

// blockCount is one block's execution count within a segment; block is
// the block's dense index.
type blockCount struct {
	block int
	n     uint64
}

// Op is the channel operation that ends a segment of a process's work.
type Op uint8

const (
	OpEnd  Op = iota // the process returned
	OpSend           // the process sends Words words on channel Ch
	OpRecv           // the process receives Words words on channel Ch
)

// Transaction is the channel operation that ends one segment of a
// process's work, the work between two channel operations.
type Transaction struct {
	Op    Op
	Ch    int
	Words int
}

// Pooled is one process's run reduced to what its timing needs: per
// segment, the pooled computation cycles, which the process waits out,
// and then the transaction that ends the segment. Cycles[j] precedes
// Trans[j]; the last transaction is OpEnd.
type Pooled struct {
	Cycles []uint64
	Trans  []Transaction
}

// replayable reports whether a run with these options can be recorded or
// replayed: a timed run with transaction-boundary waits on plain processes
// (no RTOS PE, whose preemption depends on timing), with no step limit and
// nothing that observes individual blocks or busy intervals (profile,
// activity timeline).
func replayable(d *platform.Design, opts Options) bool {
	if !opts.Timed || opts.WaitMode != WaitAtTransactions || opts.StepLimit != 0 ||
		opts.Profile || opts.Events != nil {
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
	prog *cdfg.Program
	seen []uint64 // block counts at the previous cut, by dense index
}

func newRecorder(key string, prog *cdfg.Program, m interp.Engine) *recorder {
	m.EnableProfile()
	return &recorder{tr: procTrace{key: key}, prog: prog, seen: make([]uint64, prog.NumBlocks())}
}

// cut closes the current segment with the transaction t, walking the
// blocks in dense order. A nil recorder records nothing.
func (r *recorder) cut(m interp.Engine, t Transaction) {
	if r == nil {
		return
	}
	var counts []blockCount
	all := m.BlockCountsMap()
	i := 0
	for _, fn := range r.prog.Funcs {
		for _, b := range fn.Blocks {
			if n := all[b]; n != r.seen[i] {
				counts = append(counts, blockCount{block: i, n: n - r.seen[i]})
				r.seen[i] = n
			}
			i++
		}
	}
	r.tr.counts = append(r.tr.counts, counts)
	r.tr.trans = append(r.tr.trans, t)
}

// fill completes rec from the recorders of a successful run.
func (rec *Recording) fill(d *platform.Design, runs []*procRun) {
	procs := make([]procTrace, len(runs))
	for i, pr := range runs {
		tr := pr.rec.tr
		tr.out = append([]int32(nil), pr.m.OutStream()...)
		tr.steps = pr.m.StepCount()
		procs[i] = tr
	}
	*rec = Recording{prog: d.Program, procs: procs}
}

// maxExact bounds the delays a replay accepts: below 2^53 every integer
// is a float64, so integer sums are exact in any order.
const maxExact = 1 << 53

// pooled returns each recorded process's segments under the run's per-PE
// delay tables, indexed like rec.procs: a segment's pooled cycles are
// Σ count·delay over its blocks. ok is false when rec was not recorded
// from d's program and processes, or when a delay is not a non-negative
// integer or a segment sum reaches 2^53: only with integer delays and sums
// below 2^53 does Σ count·delay equal the engines' block-by-block float
// accumulation bit for bit (the pipeline's block totals are integers,
// core.ComposeEstimate rounds them).
func (rec *Recording) pooled(d *platform.Design, delays map[*platform.PE][]float64) ([]Pooled, bool) {
	if rec.prog != d.Program || len(rec.procs) != len(d.PEs) {
		return nil, false
	}
	procs := make([]Pooled, len(rec.procs))
	for i, pe := range d.PEs {
		tr := &rec.procs[i]
		if tr.key != pe.Name {
			return nil, false
		}
		dm := delays[pe]
		cycles := make([]uint64, len(tr.counts))
		for j, counts := range tr.counts {
			sum := 0.0
			for _, c := range counts {
				v := dm[c.block]
				if !(v >= 0 && v < maxExact && v == math.Trunc(v)) {
					return nil, false
				}
				sum += float64(c.n) * v
			}
			if sum >= maxExact {
				return nil, false
			}
			cycles[j] = uint64(sum)
		}
		procs[i] = Pooled{Cycles: cycles, Trans: tr.trans}
	}
	return procs, true
}

// replay runs d's timed model from rec with its pooled segments procs and
// completes res with the recorded out streams and step counts.
func replay(ctx context.Context, d *platform.Design, rec *Recording, procs []Pooled, opts Options, res *Result) (*Result, error) {
	bus, k, err := replayPooled(ctx, d, procs, res)
	if err == nil {
		for _, tr := range rec.procs {
			res.OutByPE[tr.key] = append([]int32(nil), tr.out...)
			res.Steps += tr.steps
		}
	}
	report(opts.Metrics, res, bus, k)
	if opts.Metrics != nil {
		opts.Metrics.Counter("tlm.replays").Inc()
	}
	if err != nil {
		if diag.IsCancellation(err) {
			return res, err
		}
		return nil, err
	}
	return res, nil
}

// Replay runs d's timed model from pooled segments, one Pooled per PE in
// d.PEs order, as Run replays a Recording: each process waits out a
// segment's cycles and then performs its transaction. It returns the end
// time, the host time, the bus words and each PE's charged cycles. The
// cycle-accurate board (internal/rtl) times its one functional pass this
// way under every cache configuration.
func Replay(ctx context.Context, d *platform.Design, procs []Pooled) (*Result, error) {
	if len(procs) != len(d.PEs) {
		return nil, fmt.Errorf("tlm: %s: %d pooled processes for %d PEs", d.Name, len(procs), len(d.PEs))
	}
	res := &Result{Design: d.Name, CyclesByPE: make(map[string]uint64, len(d.PEs))}
	if _, _, err := replayPooled(ctx, d, procs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// replayPooled is the one replay loop. On a fresh kernel and timed bus,
// each process (one per PE of d, in d.PEs order) waits out a segment's
// pooled cycles when they are positive and then performs the segment's
// transaction on the bus — the kernel calls spawnProcess makes, in the
// same order, so dispatch order, bus arbitration, end time and every
// kernel and bus counter come out as the simulation's, and a wait that
// would wrap simulated time fails the run with sim.ErrTimeOverflow as the
// simulation's does. All payloads share one zero buffer: only their
// lengths matter to timing. It sets res's EndPs, Wall, BusWords and
// CyclesByPE, and returns the bus and kernel for their counters.
func replayPooled(ctx context.Context, d *platform.Design, procs []Pooled, res *Result) (*Bus, *sim.Kernel, error) {
	k := sim.NewKernel()
	bus := NewBus(k, d.Bus, true)
	maxWords := 0
	for _, pr := range procs {
		for _, t := range pr.Trans {
			maxWords = max(maxWords, t.Words)
		}
	}
	buf := make([]int32, maxWords)
	var waitErr error
	wallStart := time.Now()
	for i, pe := range d.PEs {
		key, pr := pe.Name, procs[i]
		periodPs := sim.Time(1_000_000_000_000 / pe.PUM.ClockHz)
		k.Spawn(key, func(p *sim.Process) {
			for j, t := range pr.Trans {
				if c := pr.Cycles[j]; c > 0 {
					w, err := sim.CyclesToTime(p.Now(), c, periodPs)
					if err != nil {
						waitErr = fmt.Errorf("tlm: process %s: %w", key, err)
						k.Stop()
						return
					}
					p.Wait(w)
					res.CyclesByPE[key] += c
				}
				switch t.Op {
				case OpSend:
					bus.Send(p, t.Ch, buf[:t.Words])
				case OpRecv:
					bus.Recv(p, t.Ch, buf[:t.Words])
				}
			}
		})
	}
	end, err := k.RunCtx(ctx)
	res.Wall = time.Since(wallStart)
	res.EndPs = end
	res.BusWords = bus.Words
	if waitErr != nil {
		return bus, k, waitErr
	}
	if err != nil {
		return bus, k, fmt.Errorf("tlm: %s: %w", d.Name, err)
	}
	return bus, k, nil
}
