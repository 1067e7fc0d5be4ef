package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ese/internal/diag"
)

// span is one timed call into a layer. Spans of one operation share an op
// id; parent links a span to the span that caused it (0 = none).
type span struct {
	name   string
	track  int
	op     int64
	id     int32
	parent int32
	start  time.Duration // since the tracer's origin
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span of a traced run in memory; write emits them at
// the end. A nil *tracer is the untraced run: every method is a no-op, so
// the workloads call the same code either way.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // spans[i].id == i+1
	ops    int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span starting now and returns its id.
func (t *tracer) begin(name string, track int, op int64, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, track: track, op: op, id: id, parent: parent, start: now, end: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span that ended now after running for d — the shape the
// pipeline's stage hook reports.
func (t *tracer) add(name string, track int, op int64, parent int32, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, track: track, op: op, id: id, parent: parent, start: now - d, end: now})
	t.mu.Unlock()
}

// stageNames maps pipeline stages onto the layer that implements them.
var stageNames = map[diag.Stage]string{
	diag.StageParse:    "cfront.parse",
	diag.StageCheck:    "cfront.check",
	diag.StageLower:    "cdfg.lower",
	diag.StageSimplify: "cdfg.simplify",
	diag.StageVerify:   "verify",
	diag.StageAnnotate: "core.annotate",
	diag.StageSimulate: "tlm.simulate",
}

// stageHook returns a jobspec/engine stage hook that records each completed
// stage as a child of parent, or nil for the untraced run.
func (t *tracer) stageHook(track int, op int64, parent int32) func(diag.Stage, time.Duration) {
	if t == nil {
		return nil
	}
	return func(st diag.Stage, d time.Duration) {
		name, ok := stageNames[st]
		if !ok {
			name = "stage." + string(st)
		}
		t.add(name, track, op, parent, d)
	}
}

// spanStats aggregates a set of spans: total duration, total self time
// (duration minus the part covered by child spans) and count, per name.
type spanStats struct {
	total map[string]time.Duration
	self  map[string]time.Duration
	count map[string]int
	durs  map[string][]time.Duration
}

// stats aggregates the spans accepted by keep (nil keeps all).
func (t *tracer) stats(keep func(s, parent *span) bool) spanStats {
	st := spanStats{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
		durs:  map[string][]time.Duration{},
	}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for i := range t.spans {
		if p := t.spans[i].parent; p != 0 {
			child[p] += t.spans[i].dur()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var parent *span
		if s.parent != 0 {
			parent = &t.spans[s.parent-1]
		}
		if keep != nil && !keep(s, parent) {
			continue
		}
		st.total[s.name] += s.dur()
		st.self[s.name] += s.dur() - child[s.id]
		st.count[s.name]++
		st.durs[s.name] = append(st.durs[s.name], s.dur())
	}
	return st
}

// underParent keeps spans whose direct parent has the given name.
func underParent(name string) func(s, parent *span) bool {
	return func(_, parent *span) bool { return parent != nil && parent.name == name }
}

// notUnder keeps spans that are not direct children of the named span.
func notUnder(name string) func(s, parent *span) bool {
	return func(_, parent *span) bool { return parent == nil || parent.name != name }
}

// meanMs is the mean duration of the named spans in milliseconds.
func (st spanStats) meanMs(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return ms(st.total[name]) / float64(st.count[name])
}

// medianMs is the median duration of the named spans in milliseconds.
func (st spanStats) medianMs(name string) float64 {
	vals := make([]float64, 0, len(st.durs[name]))
	for _, d := range st.durs[name] {
		vals = append(vals, ms(d))
	}
	return quantile(vals, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceEvent is one Chrome trace_event record ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write emits the spans as Chrome trace_event JSON, one track per client
// or worker (track names come from trackName).
func (t *tracer) write(path string, trackName func(int) string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	tracks := map[int]bool{}
	events := make([]traceEvent, 0, len(spans)+8)
	for _, s := range spans {
		if !tracks[s.track] {
			tracks[s.track] = true
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.track,
				Args: map[string]any{"name": trackName(s.track)}})
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
