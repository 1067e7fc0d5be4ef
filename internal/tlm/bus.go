// Package tlm builds and executes transaction-level models of a mapped
// design on the discrete-event kernel: the functional TLM (untimed), the
// timed TLM with the caller's per-block delay tables (Options.Delays)
// applied at transaction boundaries (the paper's generated model), and
// the shared abstract bus channel both use. The cycle-accurate board model
// reuses the same bus so that communication timing is common-mode between
// the estimate and the reference, as in the paper's methodology (ref.
// [16]). A timed run can record its transactions (Recording), so that
// later runs of the same program under other delays replay them instead
// of interpreting it. The replay loop takes any run reduced to pooled
// cycles and transactions (Replay): the board replays its one functional
// pass through it under every cache configuration.
package tlm

import (
	"fmt"

	"ese/internal/platform"
	"ese/internal/sim"
	"ese/internal/trace"
)

// Bus is the shared-bus instance of one simulation: rendezvous channels
// multiplexed over one arbitrated transport. A transfer occupies the bus
// for ArbCycles + words*WordCycles bus cycles, serialized against other
// transfers (non-preemptive arbitration at transaction granularity, which
// is cycle-exact for this bus protocol).
type Bus struct {
	kernel    *sim.Kernel
	cfg       platform.Bus
	periodPs  sim.Time
	busyUntil sim.Time
	channels  map[int]*channel
	timed     bool

	// Transfers counts completed transactions; Words counts payload words.
	Transfers uint64
	Words     uint64

	// Optional activity timeline: one slice per bus transaction.
	events   *trace.Events
	busTrack int
}

// WithEvents attaches an activity record; the bus records one slice per
// transaction, annotated with the channel and word count.
func (b *Bus) WithEvents(e *trace.Events) *Bus {
	b.events = e
	b.busTrack = e.Track("bus")
	return b
}

// channel is one point-to-point rendezvous channel.
type channel struct {
	id int
	// Pending sender state (set when the sender arrived first).
	sendData []int32
	sendEv   *sim.Event // woken when the transfer completes
	// Pending receiver state (set when the receiver arrived first).
	recvBuf []int32
	recvEv  *sim.Event
}

// NewBus creates the bus for one simulation run. timed=false makes every
// transfer instantaneous (functional TLM); timed=true applies arbitration
// and transfer delays.
func NewBus(k *sim.Kernel, cfg platform.Bus, timed bool) *Bus {
	return &Bus{
		kernel:   k,
		cfg:      cfg,
		periodPs: sim.Time(1_000_000_000_000 / cfg.ClockHz),
		channels: make(map[int]*channel),
		timed:    timed,
	}
}

func (b *Bus) chanFor(id int) *channel {
	c, ok := b.channels[id]
	if !ok {
		c = &channel{id: id}
		b.channels[id] = c
		c.sendEv = b.kernel.NewEvent("bus-send")
		c.recvEv = b.kernel.NewEvent("bus-recv")
	}
	return c
}

// transferDelay computes the delay from now until the transfer completes,
// including waiting for the bus to become free, and claims the bus for the
// transaction on channel ch.
func (b *Bus) transferDelay(ch, words int) sim.Time {
	if !b.timed {
		return 0
	}
	now := b.kernel.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	dur := sim.Time(b.cfg.ArbCycles+words*b.cfg.WordCycles) * b.periodPs
	b.busyUntil = start + dur
	if b.events != nil {
		b.events.SliceArgs(b.busTrack, fmt.Sprintf("ch%d", ch), start, b.busyUntil,
			map[string]any{"words": words})
	}
	return b.busyUntil - now
}

// Send transfers data over the channel, blocking until a receiver has
// arrived and the bus transfer completed. Word count mismatches between the
// two sides are tolerated by transferring min(len(send), len(recv)) words,
// mirroring the abstract channel's truncation semantics.
func (b *Bus) Send(p *sim.Process, ch int, data []int32) {
	c := b.chanFor(ch)
	if c.recvBuf != nil {
		// Receiver is waiting: this side completes the rendezvous.
		n := copyWords(c.recvBuf, data)
		c.recvBuf = nil
		d := b.transferDelay(c.id, n)
		b.account(n)
		c.recvEv.Notify(d)
		if d > 0 {
			p.Wait(d)
		}
		return
	}
	// Arrive first: publish data, wait for the receiver to complete.
	c.sendData = data
	p.WaitEvent(c.sendEv)
}

// Recv receives from the channel into buf, blocking until a sender has
// arrived and the transfer completed.
func (b *Bus) Recv(p *sim.Process, ch int, buf []int32) {
	c := b.chanFor(ch)
	if c.sendData != nil {
		n := copyWords(buf, c.sendData)
		c.sendData = nil
		d := b.transferDelay(c.id, n)
		b.account(n)
		c.sendEv.Notify(d)
		if d > 0 {
			p.Wait(d)
		}
		return
	}
	c.recvBuf = buf
	p.WaitEvent(c.recvEv)
}

func (b *Bus) account(words int) {
	b.Transfers++
	b.Words += uint64(words)
}

func copyWords(dst, src []int32) int {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	copy(dst[:n], src[:n])
	return n
}
