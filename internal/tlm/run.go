package tlm

import (
	"context"
	"fmt"
	"time"

	"ese/internal/cdfg"
	"ese/internal/diag"
	"ese/internal/interp"
	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/rtos"
	"ese/internal/sim"
	"ese/internal/trace"
)

// WaitMode selects where accumulated delays are applied to the simulation.
type WaitMode int

const (
	// WaitAtTransactions accumulates per-block delays and applies them
	// with a single kernel wait at each inter-process transaction boundary
	// — the paper's default, because per-block sc_wait "is an expensive
	// function that forces the kernel to reschedule" (§4.3).
	WaitAtTransactions WaitMode = iota
	// WaitPerBlock issues a kernel wait after every basic block, the
	// expensive alternative; used by the granularity ablation. For RTOS
	// PEs this also gives the scheduler per-block preemption granularity.
	WaitPerBlock
)

// Options configures a TLM run.
type Options struct {
	Timed     bool
	WaitMode  WaitMode
	StepLimit uint64 // per-process dynamic instruction limit (0 = none)
	// Engine selects the per-process execution engine. The default
	// (interp.EngineAuto) prefers a pre-generated ahead-of-time engine
	// when one is registered for the program, else the flat compiled
	// engine; all tiers are observably identical, so this is purely a
	// speed knob.
	Engine interp.EngineKind
	// Ctx, when non-nil, bounds the simulation: cancellation or deadline
	// expiry interrupts the event loop and every interpreter, and Run
	// returns the partial Result together with diag.ErrCanceled or
	// diag.ErrDeadline.
	Ctx context.Context
	// Delays supplies the per-PE delay tables of a timed run, keyed by PE
	// name, one delay per block in dense program order: functions in
	// order, each function's blocks in order. A timed run requires a table
	// for every PE; annotation is the staged pipeline's job
	// (internal/engine), and the run only reads the tables. Untimed runs
	// ignore it.
	Delays map[string][]float64
	// Trace, when set, records per-process busy intervals and bus activity
	// as a VCD waveform.
	Trace *trace.VCD
	// Events, when set, records the same activity as a Chrome trace_event
	// timeline (Perfetto): one track per PE (per task for RTOS PEs), one
	// for the bus, one slice per activity interval or transaction.
	Events *trace.Events
	// Profile enables per-block execution counting in every interpreter;
	// the counts are returned in Result.BlockCountsByPE and feed the
	// cycle-attribution profiler (internal/profile).
	Profile bool
	// Metrics, when non-nil, receives the run's simulation counters
	// (interpreter steps, kernel dispatches/fires, queue high-water, bus
	// transfers) when Run returns.
	Metrics *metrics.Registry
	// Recording, when non-nil, carries the design's recorded transactions
	// (see Recording): a filled one is replayed instead of interpreting
	// the program, and an empty one is filled by a run that succeeds.
	// Only timed transaction-boundary runs without RTOS PEs, step limit,
	// profile, waveform or timeline record or replay; any other run
	// simulates and leaves the Recording untouched.
	Recording *Recording
}

// Result is the outcome of one TLM simulation.
type Result struct {
	Design string
	// OutByPE holds each process's out() stream, keyed by PE name (or
	// "pe/task" for RTOS tasks).
	OutByPE map[string][]int32
	// CyclesByPE holds accumulated computation cycles per PE; RTOS tasks
	// additionally appear as "pe/task" entries, and their PE entry holds
	// the sum.
	CyclesByPE map[string]uint64
	// SwitchesByPE counts RTOS dispatches per RTOS-managed PE.
	SwitchesByPE map[string]uint64
	EndPs        sim.Time      // simulated end time (timed runs)
	Wall         time.Duration // host wall-clock simulation time
	AnnoTime     time.Duration // annotation time, set by the pipeline that annotated a timed run
	BusWords     uint64
	Steps        uint64 // total dynamic IR instructions
	// BlockCountsByPE holds the per-block execution counts of each process
	// (same keys as OutByPE); populated only when Options.Profile is set.
	BlockCountsByPE map[string]map[*cdfg.Block]uint64
}

// EndCycles converts the simulated end time to cycles of the given clock.
func (r *Result) EndCycles(clockHz int64) uint64 {
	period := 1_000_000_000_000 / uint64(clockHz)
	return uint64(r.EndPs) / period
}

// procRun tracks one spawned application process.
type procRun struct {
	key  string
	m    interp.Engine
	task *rtos.Task // nil for plain processes
	pe   *platform.PE
	rec  *recorder // nil unless the run records
	err  error
}

// Run generates and executes the TLM for a design. The generated model is
// one kernel process per application process running its annotated CDFG
// through the native interpreter, connected by abstract bus channels;
// multi-task processor PEs are arbitrated by the timed RTOS model.
func Run(d *platform.Design, opts Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := d.ValidateChannels(); err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{
		Design:       d.Name,
		OutByPE:      make(map[string][]int32),
		CyclesByPE:   make(map[string]uint64),
		SwitchesByPE: make(map[string]uint64),
	}

	// Timed models take one delay table per PE from the caller.
	delays := make(map[*platform.PE][]float64, len(d.PEs))
	if opts.Timed {
		for _, pe := range d.PEs {
			dm, ok := opts.Delays[pe.Name]
			if !ok {
				return nil, fmt.Errorf("tlm: %s: no precomputed delays for PE %q", d.Name, pe.Name)
			}
			if len(dm) != d.Program.NumBlocks() {
				return nil, fmt.Errorf("tlm: %s: PE %q has %d precomputed delays for a program of %d blocks",
					d.Name, pe.Name, len(dm), d.Program.NumBlocks())
			}
			delays[pe] = dm
		}
	}

	rec := opts.Recording
	recording := rec != nil && replayable(d, opts)
	if recording && rec.Filled() {
		if pends, ok := rec.segmentDelays(d, delays); ok {
			return replay(ctx, d, rec, pends, opts, res)
		}
		recording = false
	}

	k := sim.NewKernel()
	bus := NewBus(k, d.Bus, opts.Timed)
	if opts.Trace != nil {
		bus.WithTrace(opts.Trace)
	}
	if opts.Events != nil {
		bus.WithEvents(opts.Events)
	}
	if opts.Profile {
		res.BlockCountsByPE = make(map[string]map[*cdfg.Block]uint64)
	}
	var runs []*procRun
	var rtosCPUs []struct {
		pe  *platform.PE
		cpu *rtos.CPU
	}
	wallStart := time.Now()
	for _, pe := range d.PEs {
		pe := pe
		periodPs := sim.Time(1_000_000_000_000 / pe.PUM.ClockHz)
		if len(pe.Tasks) > 0 && opts.Timed {
			cpu := rtos.NewCPU(k, pe.RTOS, periodPs)
			if opts.Trace != nil || opts.Events != nil {
				sigs := make(map[string]*trace.Signal)
				tracks := make(map[string]int)
				for _, tk := range pe.Tasks {
					if opts.Trace != nil {
						sigs[tk.Name] = opts.Trace.Signal(pe.Name + "/" + tk.Name + "_busy")
					}
					if opts.Events != nil {
						tracks[tk.Name] = opts.Events.Track(pe.Name + "/" + tk.Name)
					}
				}
				vcd, events := opts.Trace, opts.Events
				cpu.OnRun = func(t *rtos.Task, from, to sim.Time) {
					if sig := sigs[t.Name]; sig != nil {
						vcd.Pulse(sig, from, to)
					}
					if events != nil {
						events.Slice(tracks[t.Name], "run", from, to)
					}
				}
			}
			rtosCPUs = append(rtosCPUs, struct {
				pe  *platform.PE
				cpu *rtos.CPU
			}{pe, cpu})
			for _, tk := range pe.Tasks {
				tk := tk
				pr, err := spawnRTOSTask(ctx, k, d, pe, tk, cpu, bus, delays[pe], opts)
				if err != nil {
					return nil, err
				}
				runs = append(runs, pr)
			}
			continue
		}
		for _, task := range pe.Processes() {
			task := task
			key := pe.Name
			if len(pe.Tasks) > 0 {
				key = pe.Name + "/" + task.Name
			}
			pr, err := spawnProcess(ctx, k, d, pe, key, task.Entry, bus, delays[pe], periodPs, opts, recording, res)
			if err != nil {
				return nil, err
			}
			runs = append(runs, pr)
		}
	}
	end, err := k.RunCtx(ctx)
	res.Wall = time.Since(wallStart)
	res.EndPs = end
	res.BusWords = bus.Words
	// Harvest what every process produced, even on failure: a cancelled or
	// timed-out run still yields its partial streams and counters.
	for _, pr := range runs {
		res.OutByPE[pr.key] = append([]int32(nil), pr.m.OutStream()...)
		res.Steps += pr.m.StepCount()
		if opts.Profile {
			res.BlockCountsByPE[pr.key] = pr.m.BlockCountsMap()
		}
		if pr.task != nil {
			res.CyclesByPE[pr.key] = pr.task.CPUCycles
			res.CyclesByPE[pr.pe.Name] += pr.task.CPUCycles
		}
	}
	for _, rc := range rtosCPUs {
		res.SwitchesByPE[rc.pe.Name] = rc.cpu.Switches
	}
	report(opts.Metrics, res, bus, k)
	// Cancellation (from the kernel loop or any interpreter) returns the
	// partial Result alongside the typed error; any other process failure
	// stays fatal.
	var cancelErr error
	for _, pr := range runs {
		if pr.err == nil {
			continue
		}
		wrapped := fmt.Errorf("tlm: process %s: %w", pr.key, pr.err)
		if diag.IsCancellation(pr.err) {
			if cancelErr == nil {
				cancelErr = wrapped
			}
			continue
		}
		return nil, wrapped
	}
	if err != nil {
		wrapped := fmt.Errorf("tlm: %s: %w", d.Name, err)
		if !diag.IsCancellation(err) {
			return nil, wrapped
		}
		if cancelErr == nil {
			cancelErr = wrapped
		}
	}
	if cancelErr != nil {
		return res, cancelErr
	}
	if recording {
		rec.fill(d, runs)
	}
	return res, nil
}

// report adds a finished run's simulation counters to mr (nil: none).
func report(mr *metrics.Registry, res *Result, bus *Bus, k *sim.Kernel) {
	if mr == nil {
		return
	}
	mr.Counter("tlm.steps").Add(res.Steps)
	mr.Counter("tlm.bus.transfers").Add(bus.Transfers)
	mr.Counter("tlm.bus.words").Add(bus.Words)
	ks := k.Stats()
	mr.Counter("sim.dispatches").Add(ks.Dispatches)
	mr.Counter("sim.fires").Add(ks.Fires)
	mr.Gauge("sim.queue.max").SetMax(int64(ks.MaxQueue))
	mr.Histogram("tlm.wall.seconds").Observe(res.Wall.Seconds())
}

// pooledCycles converts pooled delay cycles to the whole cycles a wait
// charges, failing with sim.ErrTimeOverflow (rather than wrapping) when
// they do not fit a uint64.
func pooledCycles(pending float64) (uint64, error) {
	if !(pending < 1<<64) {
		return 0, fmt.Errorf("%w: %g cycles", sim.ErrTimeOverflow, pending)
	}
	return uint64(pending), nil
}

// waitCycles waits out pooled delay cycles on p's clock of periodPs and
// returns the whole cycles charged, failing with sim.ErrTimeOverflow when
// the wait would wrap simulated time.
func waitCycles(p *sim.Process, pending float64, periodPs sim.Time) (uint64, error) {
	c, err := pooledCycles(pending)
	if err != nil {
		return 0, err
	}
	t, err := sim.CyclesToTime(p.Now(), c, periodPs)
	if err != nil {
		return 0, err
	}
	p.Wait(t)
	return c, nil
}

// spawnProcess wires a plain (non-RTOS) process onto the kernel; with
// record set it also traces the process for a Recording.
func spawnProcess(ctx context.Context, k *sim.Kernel, d *platform.Design, pe *platform.PE, key, entry string,
	bus *Bus, dm []float64, periodPs sim.Time, opts Options, record bool, res *Result) (*procRun, error) {
	pr := &procRun{key: key, pe: pe}
	m, err := interp.NewEngine(d.Program, opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("tlm: process %s: %w", key, err)
	}
	m.SetLimit(opts.StepLimit)
	m.SetContext(ctx)
	if opts.Profile {
		m.EnableProfile()
	}
	if opts.Timed {
		m.SetDelays(dm)
	}
	if record {
		pr.rec = newRecorder(key, d.Program, m)
	}
	pr.m = m
	k.Spawn(key, func(p *sim.Process) {
		var busy *trace.Signal
		if opts.Trace != nil {
			busy = opts.Trace.Signal(key + "_busy")
		}
		track := 0
		if opts.Events != nil {
			track = opts.Events.Track(key)
		}
		ran := func(from, to sim.Time) {
			if busy != nil {
				opts.Trace.Pulse(busy, from, to)
			}
			if opts.Events != nil {
				opts.Events.Slice(track, "compute", from, to)
			}
		}
		// Timed, transaction-boundary mode: each block's delay pools inside
		// the engine and is applied as one kernel wait at each transaction.
		wait := func(pending float64) error {
			if pending > 0 {
				start := p.Now()
				c, err := waitCycles(p, pending, periodPs)
				if err != nil {
					return err
				}
				ran(start, p.Now())
				res.CyclesByPE[key] += c
			}
			return nil
		}
		if opts.Timed && opts.WaitMode == WaitPerBlock {
			m.SetOnDelay(wait)
		}
		m.SetChannels(
			func(ch int, data []int32) error {
				pr.rec.cut(m, opSend, ch, len(data))
				if err := wait(m.TakePending()); err != nil {
					return err
				}
				bus.Send(p, ch, data)
				return nil
			},
			func(ch int, buf []int32) error {
				pr.rec.cut(m, opRecv, ch, len(buf))
				if err := wait(m.TakePending()); err != nil {
					return err
				}
				bus.Recv(p, ch, buf)
				return nil
			})
		err := m.Run(entry)
		if err == nil {
			pr.rec.cut(m, opEnd, 0, 0)
			err = wait(m.TakePending())
		}
		if err != nil {
			pr.err = err
			k.Stop()
		}
	})
	return pr, nil
}

// spawnRTOSTask wires one RTOS-managed task: its block delays consume the
// shared CPU through the RTOS arbiter, and communication releases the CPU
// while blocked (the timed RTOS model).
func spawnRTOSTask(ctx context.Context, k *sim.Kernel, d *platform.Design, pe *platform.PE, tk platform.SWTask,
	cpu *rtos.CPU, bus *Bus, dm []float64, opts Options) (*procRun, error) {
	key := pe.Name + "/" + tk.Name
	pr := &procRun{key: key, pe: pe}
	task := cpu.AddTask(tk.Name, tk.Priority)
	pr.task = task
	m, err := interp.NewEngine(d.Program, opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("tlm: process %s: %w", key, err)
	}
	m.SetLimit(opts.StepLimit)
	m.SetContext(ctx)
	if opts.Profile {
		m.EnableProfile()
	}
	m.SetDelays(dm)
	pr.m = m
	k.Spawn(key, func(p *sim.Process) {
		cpu.Bind(task, p)
		consume := func(pending float64) error {
			c, err := pooledCycles(pending)
			if err != nil {
				return err
			}
			return cpu.Consume(task, c)
		}
		drain := func() error {
			if pending := m.TakePending(); pending > 0 {
				return consume(pending)
			}
			return nil
		}
		if opts.WaitMode == WaitPerBlock {
			m.SetOnDelay(func(delay float64) error {
				if delay > 0 {
					if err := consume(delay); err != nil {
						return err
					}
					cpu.SchedulingPoint(task)
				}
				return nil
			})
		}
		m.SetChannels(
			func(ch int, data []int32) error {
				if err := drain(); err != nil {
					return err
				}
				cpu.SchedulingPoint(task)
				return cpu.Block(task, func() { bus.Send(p, ch, data) })
			},
			func(ch int, buf []int32) error {
				if err := drain(); err != nil {
					return err
				}
				cpu.SchedulingPoint(task)
				return cpu.Block(task, func() { bus.Recv(p, ch, buf) })
			})
		if err := m.Run(tk.Entry); err != nil {
			pr.err = err
			k.Stop()
			return
		}
		if err := drain(); err != nil {
			pr.err = err
			k.Stop()
			return
		}
		cpu.Finish(task)
	})
	return pr, nil
}
