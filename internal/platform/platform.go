// Package platform describes a heterogeneous multiprocessor design: the
// set of processing elements, the mapping of application processes (entry
// functions of one lowered program) onto them, and the shared-bus
// communication parameters. A Design is the "design decisions at
// transaction level" input of the paper's flow: the same Design drives the
// timed-TLM generator, the functional TLM, and the cycle-accurate board
// model, so every engine simulates the same system.
package platform

import (
	"fmt"
	"sort"

	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/pum"
	"ese/internal/rtos"
)

// PEKind distinguishes programmable processors from custom hardware units.
type PEKind int

const (
	// Processor PEs execute generated ISA code; on the board they run
	// through the cycle-accurate pipeline with real caches.
	Processor PEKind = iota
	// HWUnit PEs are synthesized custom hardware; on the board they
	// execute their list schedule cycle-exactly with local block RAM.
	HWUnit
)

func (k PEKind) String() string {
	if k == Processor {
		return "proc"
	}
	return "hw"
}

// SWTask is one of several application processes multiplexed onto a
// Processor PE by the timed RTOS model (the paper's future-work
// extension). Tasks have private state and communicate — with each other
// and with other PEs — only through channels, like any process.
type SWTask struct {
	Name     string
	Entry    string
	Priority int // higher runs first under the priority policy
}

// PE is one processing element and the process(es) mapped to it.
type PE struct {
	Name  string
	Kind  PEKind
	Entry string   // entry function of the mapped process (single-process PE)
	PUM   *pum.PUM // the processing unit model used for estimation

	// Tasks, when non-empty, maps several processes onto this Processor PE
	// under the timed RTOS model configured by RTOS; Entry must be empty.
	Tasks []SWTask
	RTOS  rtos.Config

	// Real cache organization for Processor PEs (sizes mirror the PUM's
	// selected configuration; organization adds line size/associativity).
	ICache cache.Config
	DCache cache.Config
}

// Processes returns the processes mapped to the PE: the single Entry, or
// the RTOS task list.
func (pe *PE) Processes() []SWTask {
	if len(pe.Tasks) > 0 {
		return pe.Tasks
	}
	return []SWTask{{Name: pe.Name, Entry: pe.Entry}}
}

// Bus is the shared-bus model parameters, used identically by the abstract
// TLM channel and the cycle-level board bus.
type Bus struct {
	ClockHz    int64
	ArbCycles  int // arbitration overhead per transaction
	WordCycles int // cycles per 32-bit word transferred
}

// DefaultBus returns the platform's standard OPB-like bus.
func DefaultBus() Bus {
	return Bus{ClockHz: 100_000_000, ArbCycles: 2, WordCycles: 1}
}

// Design is a complete mapped system.
type Design struct {
	Name    string
	Program *cdfg.Program
	PEs     []*PE
	Bus     Bus
}

// PEByName returns the PE with the given name, or nil.
func (d *Design) PEByName(name string) *PE {
	for _, pe := range d.PEs {
		if pe.Name == name {
			return pe
		}
	}
	return nil
}

// Validate checks that the design is internally consistent.
func (d *Design) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("platform: design needs a name")
	}
	if d.Program == nil {
		return fmt.Errorf("platform: design %s has no program", d.Name)
	}
	if len(d.PEs) == 0 {
		return fmt.Errorf("platform: design %s has no PEs", d.Name)
	}
	if d.Bus.ClockHz <= 0 || d.Bus.WordCycles <= 0 || d.Bus.ArbCycles < 0 {
		return fmt.Errorf("platform: design %s has invalid bus parameters", d.Name)
	}
	seen := make(map[string]bool)
	for _, pe := range d.PEs {
		if pe.Name == "" {
			return fmt.Errorf("platform: design %s has an unnamed PE", d.Name)
		}
		if seen[pe.Name] {
			return fmt.Errorf("platform: duplicate PE %q", pe.Name)
		}
		seen[pe.Name] = true
		if pe.PUM == nil {
			return fmt.Errorf("platform: PE %q has no PUM", pe.Name)
		}
		if err := pe.PUM.Validate(); err != nil {
			return fmt.Errorf("platform: PE %q: %w", pe.Name, err)
		}
		if len(pe.Tasks) > 0 {
			if pe.Kind != Processor {
				return fmt.Errorf("platform: PE %q: RTOS tasks require a Processor PE", pe.Name)
			}
			if pe.Entry != "" {
				return fmt.Errorf("platform: PE %q: Entry must be empty when Tasks are set", pe.Name)
			}
			taskNames := make(map[string]bool)
			for _, task := range pe.Tasks {
				if task.Name == "" {
					return fmt.Errorf("platform: PE %q has an unnamed task", pe.Name)
				}
				if taskNames[task.Name] {
					return fmt.Errorf("platform: PE %q: duplicate task %q", pe.Name, task.Name)
				}
				taskNames[task.Name] = true
				if err := checkEntry(d.Program, pe.Name+"/"+task.Name, task.Entry); err != nil {
					return err
				}
			}
			continue
		}
		if err := checkEntry(d.Program, pe.Name, pe.Entry); err != nil {
			return err
		}
	}
	return nil
}

// checkEntry validates a process entry function.
func checkEntry(prog *cdfg.Program, who, entry string) error {
	fn := prog.Func(entry)
	if fn == nil {
		return fmt.Errorf("platform: %s entry %q not in program", who, entry)
	}
	if len(fn.Params) != 0 {
		return fmt.Errorf("platform: %s entry %q must take no parameters", who, entry)
	}
	return nil
}

// ChannelUsage describes how one channel id is used across the design.
type ChannelUsage struct {
	Senders   []string
	Receivers []string
}

// Channels scans the program's processes and returns channel usage, keyed
// by channel id. It walks the static call graph from each PE's entry.
func (d *Design) Channels() map[int]*ChannelUsage {
	usage := make(map[int]*ChannelUsage)
	for _, pe := range d.PEs {
		for _, task := range pe.Processes() {
			procName := pe.Name
			if len(pe.Tasks) > 0 {
				// RTOS tasks are distinct endpoints: two tasks on one PE
				// may legally share a channel (RTOS inter-task IPC).
				procName = pe.Name + "/" + task.Name
			}
			for _, fn := range d.Program.Reachable(task.Entry) {
				for _, b := range fn.Blocks {
					for i := range b.Instrs {
						in := &b.Instrs[i]
						switch in.Op {
						case cdfg.OpSend:
							u := usage[in.Chan]
							if u == nil {
								u = &ChannelUsage{}
								usage[in.Chan] = u
							}
							u.Senders = appendUnique(u.Senders, procName)
						case cdfg.OpRecv:
							u := usage[in.Chan]
							if u == nil {
								u = &ChannelUsage{}
								usage[in.Chan] = u
							}
							u.Receivers = appendUnique(u.Receivers, procName)
						}
					}
				}
			}
		}
	}
	return usage
}

// ValidateChannels checks the point-to-point discipline of the abstract bus
// channel model: each channel has exactly one sending PE and one receiving
// PE, and they differ.
func (d *Design) ValidateChannels() error {
	for ch, u := range d.Channels() {
		if len(u.Senders) != 1 || len(u.Receivers) != 1 {
			return fmt.Errorf("platform: channel %d must have exactly one sender and one receiver (senders=%v receivers=%v)",
				ch, u.Senders, u.Receivers)
		}
		if u.Senders[0] == u.Receivers[0] {
			return fmt.Errorf("platform: channel %d connects PE %q to itself", ch, u.Senders[0])
		}
	}
	return nil
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// Graph renders the process/channel structure as text (the Figure 6 style
// application diagram).
func (d *Design) Graph() string {
	s := fmt.Sprintf("design %s (bus %d MHz, arb %d, %d cyc/word)\n",
		d.Name, d.Bus.ClockHz/1_000_000, d.Bus.ArbCycles, d.Bus.WordCycles)
	for _, pe := range d.PEs {
		s += fmt.Sprintf("  PE %-12s kind=%-4s entry=%-16s model=%s\n",
			pe.Name, pe.Kind, pe.Entry, pe.PUM.Name)
	}
	usage := d.Channels()
	ids := make([]int, 0, len(usage))
	for ch := range usage {
		ids = append(ids, ch)
	}
	sort.Ints(ids)
	for _, ch := range ids {
		u := usage[ch]
		s += fmt.Sprintf("  ch%-3d %v -> %v\n", ch, u.Senders, u.Receivers)
	}
	return s
}
