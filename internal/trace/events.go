// Package trace records the activity of a TLM simulation as one timeline
// of slices on named tracks and renders it two ways: a Chrome trace_event
// JSON timeline (RenderJSON) and a VCD waveform with one busy wire per
// track (RenderVCD). Because the timed TLM advances in lump-sum waits,
// both show exactly the transaction-level activity picture the model
// computes.
package trace

import (
	"encoding/json"

	"ese/internal/sim"
)

// Events accumulates execution slices on named tracks. RenderJSON writes
// them in the Chrome trace_event JSON format, the timeline format Perfetto
// and chrome://tracing load directly; RenderVCD writes them as a waveform.
// The TLM uses one track per PE (per task for RTOS PEs) plus one for the
// shared bus; each slice is one interval of activity: a lump of computed
// block delays, one RTOS run interval, or one bus transaction.
//
// Events is single-threaded by construction: the simulation kernel
// dispatches exactly one process at a time, so recording needs no locking
// and the slice order is deterministic.
type Events struct {
	tracks []string
	slices []evSlice
}

type evSlice struct {
	tid  int
	name string
	from sim.Time
	to   sim.Time
	args map[string]any
}

// NewEvents returns an empty timeline.
func NewEvents() *Events { return &Events{} }

// Track registers a named track (rendered as one thread row) and returns
// its id for Slice calls.
func (e *Events) Track(name string) int {
	e.tracks = append(e.tracks, name)
	return len(e.tracks) // 1-based tid; 0 is not a valid trace_event tid row
}

// Slice records one activity interval [from, to) on a track.
func (e *Events) Slice(tid int, name string, from, to sim.Time) {
	e.SliceArgs(tid, name, from, to, nil)
}

// SliceArgs is Slice with key/value annotations shown in the viewer's
// selection panel.
func (e *Events) SliceArgs(tid int, name string, from, to sim.Time, args map[string]any) {
	e.slices = append(e.slices, evSlice{tid: tid, name: name, from: from, to: to, args: args})
}

// Len returns the number of recorded slices.
func (e *Events) Len() int { return len(e.slices) }

// traceEvent is one entry of the trace_event JSON array. Timestamps and
// durations are microseconds (the format's unit); simulation time is
// picoseconds, so values are fractional.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tracePid is the single synthetic process id all tracks share.
const tracePid = 1

// RenderJSON produces the complete trace: a thread_name metadata event per
// track (so Perfetto labels the rows) followed by one complete ("X") event
// per slice, wrapped in the {"traceEvents": [...]} object form.
func (e *Events) RenderJSON() ([]byte, error) {
	evs := make([]traceEvent, 0, len(e.tracks)+len(e.slices))
	for i, name := range e.tracks {
		evs = append(evs, traceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  tracePid,
			Tid:  i + 1,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range e.slices {
		dur := float64(s.to-s.from) / 1e6 // ps -> us
		evs = append(evs, traceEvent{
			Name: s.name,
			Ph:   "X",
			Pid:  tracePid,
			Tid:  s.tid,
			Ts:   float64(s.from) / 1e6,
			Dur:  &dur,
			Args: s.args,
		})
	}
	return json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs})
}
