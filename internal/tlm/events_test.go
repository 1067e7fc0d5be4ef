package tlm

import (
	"encoding/json"
	"strings"
	"testing"

	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtos"
	"ese/internal/trace"
)

// TestTimedRunEmitsTraceEvents checks the timeline wiring end to end: a
// timed run with an Events recorder yields per-PE compute slices and bus
// transaction slices whose rendered JSON has the trace_event shape.
func TestTimedRunEmitsTraceEvents(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	ev := trace.NewEvents()
	reg := metrics.NewRegistry()
	res, err := Run(d, Options{
		Timed:    true,
		WaitMode: WaitAtTransactions,
		Delays:   fullDelays(t, d),
		Events:   ev,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ev.Len() == 0 {
		t.Fatal("no slices recorded")
	}
	data, err := ev.RenderJSON()
	if err != nil {
		t.Fatalf("RenderJSON: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	tracks := map[string]bool{}
	var computes, xfers int
	var lastEnd float64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			tracks[e.Args["name"].(string)] = true
		case "X":
			if e.Dur < 0 || e.Ts < 0 {
				t.Errorf("slice %q has negative ts/dur", e.Name)
			}
			if end := e.Ts + e.Dur; end > lastEnd {
				lastEnd = end
			}
			if e.Name == "compute" {
				computes++
			} else {
				xfers++
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	for _, want := range []string{"cpu", "acc", "bus"} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, tracks)
		}
	}
	if computes == 0 || xfers == 0 {
		t.Fatalf("computes=%d xfers=%d, want both > 0", computes, xfers)
	}
	// The timeline must span the simulation: last slice ends at EndPs (us).
	if want := float64(res.EndPs) / 1e6; lastEnd != want {
		t.Errorf("timeline ends at %v us, simulation at %v us", lastEnd, want)
	}
	// Metrics wiring: the run's counters landed in the registry.
	snap := reg.Snapshot()
	if snap.Counters["tlm.steps"] != res.Steps {
		t.Errorf("tlm.steps = %d, want %d", snap.Counters["tlm.steps"], res.Steps)
	}
	if snap.Counters["sim.dispatches"] == 0 || snap.Gauges["sim.queue.max"] < 1 {
		t.Errorf("kernel counters missing from snapshot: %+v", snap)
	}
}

// TestRTOSRunEmitsTaskTracks checks that RTOS PEs get one track per task.
func TestRTOSRunEmitsTaskTracks(t *testing.T) {
	prog := compile(t, pingPongSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &platform.Design{
		Name:    "rtos",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{{
			Name: "cpu", Kind: platform.Processor, PUM: mb,
			RTOS: rtos.Config{Policy: rtos.Cooperative},
			Tasks: []platform.SWTask{
				{Name: "t0", Entry: "main"},
				{Name: "t1", Entry: "worker"},
			},
		}},
	}
	ev := trace.NewEvents()
	if _, err := Run(d, Options{
		Timed:    true,
		WaitMode: WaitAtTransactions,
		Delays:   fullDelays(t, d),
		Events:   ev,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := ev.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cpu/t0"`, `"cpu/t1"`, `"run"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}
