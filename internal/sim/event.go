package sim

// Event is a SystemC-style notification primitive. Processes block on it
// with Process.WaitEvent; any process (or external code between Run calls)
// triggers it with Notify.
type Event struct {
	kernel  *Kernel
	name    string
	waiters []*Process
	pending int
}

// NewEvent creates an event bound to the kernel.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{kernel: k, name: name}
}

// Name returns the event name.
func (e *Event) Name() string { return e.name }

// Notify schedules the event to fire at now+delay. When it fires, every
// process waiting on the event at that instant becomes runnable, in the order
// they began waiting. A zero delay fires in the next delta cycle of the
// current timestamp. Multiple outstanding notifications each fire.
func (e *Event) Notify(delay Time) {
	e.pending++
	e.kernel.scheduleFire(e, delay)
}
