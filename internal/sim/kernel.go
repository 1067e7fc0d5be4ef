// Package sim implements a deterministic discrete-event simulation kernel in
// the style of the SystemC reference simulator. It is the substrate that the
// generated transaction-level models execute on.
//
// Processes are goroutines, but scheduling is strictly cooperative: exactly
// one process goroutine runs at any instant, and runnable processes at the
// same timestamp are dispatched in (time, delta, sequence) order. Every
// simulation is therefore bit-reproducible.
//
// The kernel provides the three primitives the paper's TLM wrapper needs:
//
//   - Process.Wait(d): suspend the calling process for d time units
//     (the sc_wait analogue used at transaction boundaries);
//   - Event.Notify(d) / Process.WaitEvent(ev): SystemC-style event
//     notification, used to build rendezvous bus channels;
//   - deterministic termination: Run returns when no process can make
//     progress, reporting deadlock if processes are still blocked.
package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"ese/internal/diag"
)

// Time is simulation time in abstract base units. The TLM layer uses
// picoseconds so that PE clocks with different periods compose exactly.
type Time uint64

// Kernel is a discrete-event simulator instance. It is not safe for
// concurrent use; all interaction happens from process goroutines it manages
// or from the goroutine that called Run.
type Kernel struct {
	now     Time
	delta   uint64
	seq     uint64
	queue   eventQueue
	procs   []*Process
	current *Process
	stopped bool
	// ctx, when non-nil, is checked periodically by the event loop so a
	// runaway simulation (e.g. endless delta cycles) terminates with a
	// typed cancellation error instead of spinning forever.
	ctx context.Context
	// ctxCountdown spaces the context checks (checking every dispatch
	// would put a lock acquisition on the hot path).
	ctxCountdown int
	stats        KernelStats
	// free recycles queue items: every scheduled wakeup or event fire is
	// popped exactly once by the event loop, which returns it here, so the
	// steady state allocates no items at all.
	free []*queueItem
	// fireScratch is the reusable snapshot of an event's waiter list taken
	// while firing. fire never nests (only the event loop calls it, and a
	// dispatched process cannot re-enter the loop), so one buffer suffices.
	fireScratch []*Process
}

// KernelStats counts the event loop's work, for observability: how many
// process wakeups were dispatched, how many event notifications fired, and
// the high-water mark of the pending queue.
type KernelStats struct {
	Dispatches uint64
	Fires      uint64
	MaxQueue   int
}

// ctxCheckInterval is how many queue items the event loop processes
// between context checks.
const ctxCheckInterval = 256

// NewKernel returns an empty simulator positioned at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns the event-loop counters accumulated so far.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Stop requests that the simulation halt after the currently running process
// yields. Pending events are discarded.
func (k *Kernel) Stop() { k.stopped = true }

// Spawn registers a new process. The body runs when Run is called; it must
// interact with the kernel only through its *Process argument. Processes
// spawned before Run starts are initially runnable at time zero in spawn
// order.
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{
		name:   name,
		kernel: k,
		body:   body,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		state:  stateReady,
	}
	k.procs = append(k.procs, p)
	k.schedule(p, 0)
	return p
}

// newItem pops a recycled queue item from the free list, or allocates one.
func (k *Kernel) newItem() *queueItem {
	if n := len(k.free); n > 0 {
		item := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return item
	}
	return &queueItem{}
}

// recycle returns a popped item to the free list.
func (k *Kernel) recycle(item *queueItem) {
	item.proc = nil
	item.event = nil
	k.free = append(k.free, item)
}

// schedule enqueues a wakeup for p at now+delay. A zero delay within a
// running simulation is a delta-cycle wakeup: it fires at the same timestamp
// but strictly after all currently scheduled same-time work.
func (k *Kernel) schedule(p *Process, delay Time) {
	k.seq++
	item := k.newItem()
	item.t = k.now + delay
	item.delta = k.delta
	item.seq = k.seq
	item.proc = p
	if delay == 0 {
		item.delta = k.delta + 1
	}
	heap.Push(&k.queue, item)
	if n := k.queue.Len(); n > k.stats.MaxQueue {
		k.stats.MaxQueue = n
	}
}

// scheduleFire enqueues an event firing at now+delay.
func (k *Kernel) scheduleFire(ev *Event, delay Time) {
	k.seq++
	item := k.newItem()
	item.t = k.now + delay
	item.delta = k.delta
	item.seq = k.seq
	item.event = ev
	if delay == 0 {
		item.delta = k.delta + 1
	}
	heap.Push(&k.queue, item)
	if n := k.queue.Len(); n > k.stats.MaxQueue {
		k.stats.MaxQueue = n
	}
}

// Run executes the simulation until no further progress is possible or
// the kernel is stopped. It returns the final simulation time. If processes remain blocked on
// events that can never fire, Run returns ErrDeadlock wrapping their names.
func (k *Kernel) Run() (Time, error) {
	return k.RunCtx(context.Background())
}

// RunCtx is Run under a context: the event loop checks the context every
// few hundred queue items and, once it is canceled or past its deadline,
// stops dispatching and returns the current (partial) simulation time with
// diag.ErrCanceled or diag.ErrDeadline. Note that a process that never
// yields back to the kernel cannot be interrupted here — compute-bound
// process bodies (e.g. the IR interpreter) carry their own context checks.
func (k *Kernel) RunCtx(ctx context.Context) (Time, error) {
	k.ctx = ctx
	k.ctxCountdown = 0
	defer func() { k.ctx = nil }()
	for k.queue.Len() > 0 && !k.stopped {
		if k.ctxCountdown--; k.ctxCountdown < 0 {
			k.ctxCountdown = ctxCheckInterval
			if err := diag.FromContext(k.ctx); err != nil {
				k.stopped = true
				return k.now, err
			}
		}
		item := heap.Pop(&k.queue).(*queueItem)
		if item.t > k.now {
			k.now = item.t
			k.delta = 0
		}
		if item.delta > k.delta {
			k.delta = item.delta
		}
		switch {
		case item.proc != nil:
			proc := item.proc
			k.recycle(item)
			k.dispatch(proc)
		case item.event != nil:
			ev := item.event
			k.recycle(item)
			k.fire(ev)
		default:
			k.recycle(item)
		}
	}
	if k.stopped {
		return k.now, nil
	}
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateWaitEvent {
			blocked = append(blocked, p.name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return k.now, fmt.Errorf("%w: processes still blocked: %v", ErrDeadlock, blocked)
	}
	return k.now, nil
}

// dispatch resumes p and blocks until it yields back to the scheduler.
func (k *Kernel) dispatch(p *Process) {
	if p.state == stateDone {
		return
	}
	if p.state == stateWaitEvent {
		// The process was woken by an event wakeup raced with a timed
		// wakeup; the event path owns it now.
		return
	}
	k.stats.Dispatches++
	k.current = p
	p.state = stateRunning
	if !p.started {
		p.started = true
		go p.run()
	} else {
		p.resume <- struct{}{}
	}
	<-p.yield
	k.current = nil
}

// fire wakes every process currently waiting on ev, in registration order.
// The waiter list is snapshotted into the kernel's scratch buffer and the
// event's own slice is truncated in place, so a process that immediately
// re-waits appends into the retained backing array instead of allocating.
func (k *Kernel) fire(ev *Event) {
	k.stats.Fires++
	k.fireScratch = append(k.fireScratch[:0], ev.waiters...)
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0]
	ev.pending--
	for _, p := range k.fireScratch {
		if p.state != stateWaitEvent {
			continue
		}
		p.state = stateReady
		k.dispatch(p)
	}
}

// ErrTimeOverflow is returned (wrapped) by CyclesToTime when a wait does
// not fit simulated time: the picoseconds it lasts, or the time it ends
// at, would wrap the uint64 clock.
var ErrTimeOverflow = errors.New("sim: simulated time overflows picoseconds")

// CyclesToTime returns how long cycles clock periods of periodPs last, for
// a wait starting at now, or an ErrTimeOverflow error when that duration
// or the time the wait ends at does not fit a Time.
func CyclesToTime(now Time, cycles uint64, periodPs Time) (Time, error) {
	if periodPs != 0 && cycles > (math.MaxUint64-uint64(now))/uint64(periodPs) {
		return 0, fmt.Errorf("%w: %d cycles of %d ps at %d ps", ErrTimeOverflow, cycles, periodPs, now)
	}
	return Time(cycles) * periodPs, nil
}

// ErrDeadlock is returned (wrapped) by Run when the event queue drains while
// processes are still blocked on events.
var ErrDeadlock = errDeadlock{}

type errDeadlock struct{}

func (errDeadlock) Error() string { return "sim: deadlock" }
