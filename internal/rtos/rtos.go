// Package rtos implements the timed RTOS model the paper names as future
// work ("we plan to improve our PE data models by adding RTOS parameters",
// §6) — the abstraction the authors later published as "Automatic
// Generation of Cycle-Approximate TLMs with Timed RTOS Model Support".
//
// The model serializes several application processes (tasks) onto one
// processor PE of the timed TLM. Tasks consume their annotated basic-block
// delays only while holding the CPU; the RTOS model arbitrates the CPU
// with a configurable policy (cooperative, round-robin with a time slice,
// or priority-preemptive), charges a context-switch overhead on every
// dispatch (including the first), and hands the CPU over at the model's
// scheduling points: delay consumption boundaries, communication blocking,
// and task completion. Preemption is therefore cycle-approximate at
// basic-block granularity, matching the estimation technique's own
// granularity.
package rtos

import (
	"fmt"
	"sort"

	"ese/internal/sim"
)

// Policy is the task scheduling policy of the RTOS model.
type Policy int

const (
	// Cooperative never preempts: a task runs until it blocks on
	// communication or finishes.
	Cooperative Policy = iota
	// RoundRobin preempts the running task when its time slice expires
	// and another task is ready.
	RoundRobin
	// PriorityPreemptive always runs the highest-priority ready task;
	// preemption happens at scheduling points.
	PriorityPreemptive
)

func (p Policy) String() string {
	switch p {
	case Cooperative:
		return "cooperative"
	case RoundRobin:
		return "roundrobin"
	case PriorityPreemptive:
		return "priority"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config is the RTOS parameter set added to the PE model.
type Config struct {
	Policy              Policy
	TimeSliceCycles     uint64 // round-robin quantum; 0 means never expire
	ContextSwitchCycles uint64 // overhead charged on every dispatch
}

// Task is one application process managed by the RTOS.
type Task struct {
	Name     string
	Priority int // higher runs first under PriorityPreemptive

	proc    *sim.Process
	grant   *sim.Event
	ready   bool
	running bool
	done    bool
	// CPUCycles is the pure computation time consumed by the task.
	CPUCycles uint64
	// WaitCycles is time spent ready but waiting for the CPU.
	WaitCycles uint64
	seq        int
	sliceLeft  uint64
	readyAt    sim.Time
}

// CPU is the shared-processor arbiter of one RTOS PE instance.
type CPU struct {
	kernel   *sim.Kernel
	cfg      Config
	periodPs sim.Time
	tasks    []*Task
	current  *Task
	// Switches counts dispatches (every grant of the CPU to a task).
	Switches uint64
	// OnRun, when set, observes every interval of CPU time a task consumes
	// (used for waveform tracing).
	OnRun func(t *Task, from, to sim.Time)
}

// NewCPU creates the arbiter for one processor PE.
func NewCPU(k *sim.Kernel, cfg Config, periodPs sim.Time) *CPU {
	return &CPU{kernel: k, cfg: cfg, periodPs: periodPs}
}

// Config returns the arbiter's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Tasks returns the registered tasks.
func (c *CPU) Tasks() []*Task { return c.tasks }

// AddTask registers a task; call before simulation starts.
func (c *CPU) AddTask(name string, priority int) *Task {
	t := &Task{
		Name:     name,
		Priority: priority,
		grant:    c.kernel.NewEvent("grant-" + name),
		seq:      len(c.tasks),
	}
	c.tasks = append(c.tasks, t)
	return t
}

// Bind attaches the task to its simulation process and acquires the CPU
// for the task's first run. Must be the task process's first interaction.
func (c *CPU) Bind(t *Task, p *sim.Process) {
	t.proc = p
	c.acquire(t)
}

// pickNext selects the next task to run among the ready, not-running set.
func (c *CPU) pickNext() *Task {
	var ready []*Task
	for _, t := range c.tasks {
		if t.ready && !t.done && !t.running {
			ready = append(ready, t)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	switch c.cfg.Policy {
	case PriorityPreemptive:
		sort.SliceStable(ready, func(i, j int) bool {
			if ready[i].Priority != ready[j].Priority {
				return ready[i].Priority > ready[j].Priority
			}
			return ready[i].seq < ready[j].seq
		})
	default:
		// FIFO by time of becoming ready, ties by registration order.
		sort.SliceStable(ready, func(i, j int) bool {
			if ready[i].readyAt != ready[j].readyAt {
				return ready[i].readyAt < ready[j].readyAt
			}
			return ready[i].seq < ready[j].seq
		})
	}
	return ready[0]
}

// grab makes t the running task (bookkeeping only).
func (c *CPU) grab(t *Task) {
	c.current = t
	t.running = true
	t.sliceLeft = c.cfg.TimeSliceCycles
	c.Switches++
}

// dispatch grants the CPU to a task that is blocked on its grant event.
func (c *CPU) dispatch(t *Task) {
	c.grab(t)
	t.grant.Notify(0)
}

// chargeSwitch advances the task's timeline by the context-switch cost.
func (c *CPU) chargeSwitch(t *Task) {
	if c.cfg.ContextSwitchCycles > 0 {
		t.proc.Wait(sim.Time(c.cfg.ContextSwitchCycles) * c.periodPs)
	}
}

// acquire blocks the calling task until it holds the CPU. Every acquire
// pays the context-switch overhead (the dispatch cost of the RTOS).
func (c *CPU) acquire(t *Task) {
	t.ready = true
	t.readyAt = t.proc.Now()
	if c.current == nil {
		next := c.pickNext()
		if next == t {
			c.grab(t)
			c.chargeSwitch(t)
			return
		}
		if next != nil {
			// The CPU is free but policy favors another waiter: wake it,
			// then queue for our own turn.
			c.dispatch(next)
		}
	}
	start := t.proc.Now()
	t.proc.WaitEvent(t.grant)
	t.WaitCycles += uint64((t.proc.Now() - start) / c.periodPs)
	c.chargeSwitch(t)
}

// release gives up the CPU and dispatches the next ready task, if any.
func (c *CPU) release(t *Task, stillReady bool) {
	t.running = false
	t.ready = stillReady
	t.readyAt = t.proc.Now()
	c.current = nil
	if next := c.pickNext(); next != nil {
		c.dispatch(next)
	}
}

// shouldPreempt reports whether the running task must yield at a
// scheduling point.
func (c *CPU) shouldPreempt(t *Task) bool {
	switch c.cfg.Policy {
	case Cooperative:
		return false
	case RoundRobin:
		return c.cfg.TimeSliceCycles > 0 && t.sliceLeft == 0 && c.pickNext() != nil
	case PriorityPreemptive:
		n := c.pickNext()
		return n != nil && n.Priority > t.Priority
	}
	return false
}

// Consume charges cycles of computation to the task, advancing simulated
// time while the task holds the CPU and yielding at scheduling points. It
// returns an error if the task does not hold the CPU — a scheduling
// invariant violation that would silently corrupt the timeline — or, with
// sim.ErrTimeOverflow, if the cycles would wrap simulated time.
func (c *CPU) Consume(t *Task, cycles uint64) error {
	for cycles > 0 {
		if c.current != t {
			return fmt.Errorf("rtos: task %s consuming without the CPU", t.Name)
		}
		chunk := cycles
		if c.cfg.Policy == RoundRobin && c.cfg.TimeSliceCycles > 0 && t.sliceLeft < chunk {
			chunk = t.sliceLeft
		}
		if chunk > 0 {
			start := t.proc.Now()
			d, err := sim.CyclesToTime(start, chunk, c.periodPs)
			if err != nil {
				return fmt.Errorf("rtos: task %s: %w", t.Name, err)
			}
			t.proc.Wait(d)
			if c.OnRun != nil {
				c.OnRun(t, start, t.proc.Now())
			}
			t.CPUCycles += chunk
			cycles -= chunk
			if c.cfg.Policy == RoundRobin && c.cfg.TimeSliceCycles > 0 {
				t.sliceLeft -= chunk
			}
		}
		if cycles == 0 {
			return nil
		}
		// Slice boundary mid-request: scheduling point.
		if c.shouldPreempt(t) {
			c.release(t, true)
			c.acquire(t)
		} else {
			t.sliceLeft = c.cfg.TimeSliceCycles
		}
	}
	return nil
}

// SchedulingPoint lets the policy preempt between basic-block delay
// consumptions (priority-preemptive reacts here to tasks that became
// ready during communication).
func (c *CPU) SchedulingPoint(t *Task) {
	if c.current == t && c.shouldPreempt(t) {
		c.release(t, true)
		c.acquire(t)
	}
}

// Block releases the CPU around a blocking operation: op runs without the
// CPU held; afterwards the task re-acquires it. It returns an error if the
// task does not hold the CPU (see Consume).
func (c *CPU) Block(t *Task, op func()) error {
	if c.current != t {
		return fmt.Errorf("rtos: task %s blocking without the CPU", t.Name)
	}
	c.release(t, false)
	op()
	c.acquire(t)
	return nil
}

// Finish marks the task complete and hands the CPU on.
func (c *CPU) Finish(t *Task) {
	t.done = true
	t.ready = false
	if c.current == t {
		t.running = false
		c.current = nil
		if next := c.pickNext(); next != nil {
			c.dispatch(next)
		}
	}
}
