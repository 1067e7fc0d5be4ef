package tlm

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ese/internal/metrics"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtos"
	"ese/internal/trace"
)

// contentionSrc has two sender/receiver pairs on their own channels; the
// senders run the same code on the same model, so both transfers claim the
// bus at one timestamp and arbitration order decides who waits. Each
// sender's two back-to-back sends leave an empty segment between them.
const contentionSrc = `
int a[8];
void fill() {
  int i;
  for (i = 0; i < 8; i++) a[i] = i;
}
void s0() {
  fill();
  send(0, a, 8);
  send(0, a, 4);
}
void s1() {
  fill();
  send(1, a, 8);
  send(1, a, 4);
}
void r0() {
  int w[8];
  recv(0, w, 8);
  out(w[7]);
  recv(0, w, 4);
  out(w[3]);
}
void r1() {
  int w[8];
  recv(1, w, 8);
  out(w[7]);
  recv(1, w, 4);
  out(w[3]);
}
`

// mismatchSrc sends more words than the receiver asks for (and fewer on
// the way back), so the bus truncates both transfers.
const mismatchSrc = `
int buf[8];
void main() {
  int r[8];
  send(0, buf, 8);
  recv(1, r, 8);
  out(r[0]);
}
void worker() {
  int w[4];
  recv(0, w, 4);
  w[0] = 99;
  send(1, w, 2);
}
`

// tailSrc does most of its work after its last channel operation, so the
// final segment decides the end time.
const tailSrc = `
int buf[4];
void main() {
  int i;
  int acc = 0;
  send(0, buf, 4);
  for (i = 0; i < 200; i++) acc += i * i % 7;
  out(acc);
}
void worker() {
  int w[4];
  recv(0, w, 4);
}
`

// contentionDesign maps contentionSrc's four processes onto four PEs.
func contentionDesign(t *testing.T) *platform.Design {
	t.Helper()
	mb := pum.MicroBlaze()
	d := &platform.Design{
		Name:    "contention",
		Program: compile(t, contentionSrc),
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "s0", Kind: platform.Processor, Entry: "s0", PUM: mb},
			{Name: "s1", Kind: platform.Processor, Entry: "s1", PUM: mb},
			{Name: "r0", Kind: platform.HWUnit, Entry: "r0", PUM: pum.CustomHW("r0", 100_000_000)},
			{Name: "r1", Kind: platform.HWUnit, Entry: "r1", PUM: pum.CustomHW("r1", 50_000_000)},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

// annotatedDelays is the per-PE delay tables a pipeline would hand Run,
// rewritten block by block by f into fresh tables.
func annotatedDelays(t *testing.T, d *platform.Design, f func(pe string, i int, v float64) float64) map[string][]float64 {
	t.Helper()
	out := make(map[string][]float64, len(d.PEs))
	for name, ann := range fullDelays(t, d) {
		dm := make([]float64, len(ann))
		for i, v := range ann {
			dm[i] = f(name, i, v)
		}
		out[name] = dm
	}
	return out
}

// timedOpts are the options of a recordable run with the given delays.
func timedOpts(delays map[string][]float64, rec *Recording, reg *metrics.Registry) Options {
	return Options{
		Timed:     true,
		WaitMode:  WaitAtTransactions,
		Delays:    delays,
		Recording: rec,
		Metrics:   reg,
	}
}

// simCounters is a run's registry without its wall-clock histogram.
func simCounters(reg *metrics.Registry) (map[string]uint64, map[string]int64) {
	snap := reg.Snapshot()
	return snap.Counters, snap.Gauges
}

// TestReplayMatchesSimulation records each design once under its
// annotated delays, then replays the recording under several other delay
// maps and requires every Result field (wall time aside) and every
// kernel and bus counter to equal a simulation with the same delays; the
// replay alone counts one tlm.replays.
func TestReplayMatchesSimulation(t *testing.T) {
	keep := func(_ string, _ int, v float64) float64 { return v }
	scaled := func(_ string, _ int, v float64) float64 { return v*3 + 1 }
	zeroWorker := func(pe string, _ int, v float64) float64 {
		if pe == "acc" || pe == "r1" {
			return 0
		}
		return v
	}
	allZero := func(string, int, float64) float64 { return 0 }
	for _, tc := range []struct {
		name string
		d    *platform.Design
	}{
		{"contention", contentionDesign(t)},
		{"pingpong", twoPEDesign(t, pingPongSrc)},
		{"mismatch", twoPEDesign(t, mismatchSrc)},
		{"tail", twoPEDesign(t, tailSrc)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			rec := &Recording{}
			if _, err := Run(d, timedOpts(fullDelays(t, d), rec, nil)); err != nil {
				t.Fatalf("recording run: %v", err)
			}
			if !rec.Filled() {
				t.Fatal("recording run left the recording empty")
			}
			for name, f := range map[string]func(string, int, float64) float64{
				"same": keep, "scaled": scaled, "zero-worker": zeroWorker, "all-zero": allZero,
			} {
				delays := annotatedDelays(t, d, f)
				wantReg, gotReg := metrics.NewRegistry(), metrics.NewRegistry()
				want, err := Run(d, timedOpts(delays, nil, wantReg))
				if err != nil {
					t.Fatalf("%s: simulation: %v", name, err)
				}
				byPE := make(map[*platform.PE][]float64)
				for _, pe := range d.PEs {
					byPE[pe] = delays[pe.Name]
				}
				procs, ok := rec.pooled(d, byPE)
				if !ok {
					t.Fatalf("%s: delays not replayable", name)
				}
				if tc.name == "contention" && !reflect.DeepEqual(procs[0].Cycles, procs[1].Cycles) {
					t.Fatalf("%s: senders' segment delays %v and %v differ; want one timestamp", name, procs[0].Cycles, procs[1].Cycles)
				}
				got, err := Run(d, timedOpts(delays, rec, gotReg))
				if err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
				want.Wall, got.Wall = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replay differs from simulation\n got %+v\nwant %+v", name, got, want)
				}
				wc, wg := simCounters(wantReg)
				gc, gg := simCounters(gotReg)
				if gc["tlm.replays"] != 1 || wc["tlm.replays"] != 0 {
					t.Fatalf("%s: tlm.replays %d on the replay and %d on the simulation, want 1 and 0", name, gc["tlm.replays"], wc["tlm.replays"])
				}
				delete(gc, "tlm.replays")
				if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gg, wg) {
					t.Fatalf("%s: replay counters %v %v, simulation %v %v", name, gc, gg, wc, wg)
				}
			}
		})
	}
}

// TestReplayNeedsIntegerDelays: a delay that is not a non-negative
// integer makes the run simulate, since the engines' float accumulation
// could then differ from the segment sums.
func TestReplayNeedsIntegerDelays(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	rec := &Recording{}
	if _, err := Run(d, timedOpts(fullDelays(t, d), rec, nil)); err != nil || !rec.Filled() {
		t.Fatalf("recording run: filled=%v err=%v", rec.Filled(), err)
	}
	for name, bad := range map[string]func(string, int, float64) float64{
		"fraction": func(_ string, _ int, v float64) float64 { return v + 0.1 },
		"negative": func(string, int, float64) float64 { return -1 },
	} {
		delays := annotatedDelays(t, d, bad)
		byPE := map[*platform.PE][]float64{d.PEs[0]: delays["cpu"], d.PEs[1]: delays["acc"]}
		if _, ok := rec.pooled(d, byPE); ok {
			t.Fatalf("%s: delays accepted for replay", name)
		}
		want, err := Run(d, timedOpts(delays, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(d, timedOpts(delays, rec, nil))
		if err != nil {
			t.Fatal(err)
		}
		want.Wall, got.Wall = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fallback run differs from simulation", name)
		}
	}
	// A recording belongs to its program: another design's run ignores it.
	other := twoPEDesign(t, pingPongSrc)
	if _, ok := rec.pooled(other, nil); ok {
		t.Fatal("recording accepted for another program")
	}
}

// TestRecordingFallbacks: runs that must simulate leave an empty
// recording empty — RTOS PEs, per-block waits, profiling, activity
// timelines, step limits, untimed runs, and runs that fail or are
// cancelled.
func TestRecordingFallbacks(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		d    *platform.Design
		mut  func(*Options)
	}{
		{"rtos", rtosDesign(t, rtos.Config{Policy: rtos.Cooperative}), func(*Options) {}},
		{"per-block", twoPEDesign(t, pingPongSrc), func(o *Options) { o.WaitMode = WaitPerBlock }},
		{"profile", twoPEDesign(t, pingPongSrc), func(o *Options) { o.Profile = true }},
		{"events", twoPEDesign(t, pingPongSrc), func(o *Options) { o.Events = trace.NewEvents() }},
		{"step-limit", twoPEDesign(t, pingPongSrc), func(o *Options) { o.StepLimit = 1 << 30 }},
		{"untimed", twoPEDesign(t, pingPongSrc), func(o *Options) { *o = Options{} }},
		{"failed", twoPEDesign(t, pingPongSrc), func(o *Options) { o.StepLimit = 10 }},
		{"canceled", twoPEDesign(t, pingPongSrc), func(o *Options) { o.Ctx = canceled }},
		{"deadline", spinDesign(t), func(o *Options) {
			ctx, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
			t.Cleanup(stop)
			o.Ctx = ctx
		}},
	} {
		rec := &Recording{}
		opts := Options{Timed: true, WaitMode: WaitAtTransactions, Delays: fullDelays(t, tc.d)}
		tc.mut(&opts)
		opts.Recording = rec
		Run(tc.d, opts)
		if rec.Filled() {
			t.Errorf("%s: run filled the recording", tc.name)
		}
	}
}

// TestFilledRecordingIgnoredWhenSimulating: a run whose options need the
// simulation ignores a filled recording — a profiled run still reports
// block counts — and leaves it as it was.
func TestFilledRecordingIgnoredWhenSimulating(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	delays := fullDelays(t, d)
	rec := &Recording{}
	if _, err := Run(d, timedOpts(delays, rec, nil)); err != nil || !rec.Filled() {
		t.Fatalf("recording run: filled=%v err=%v", rec.Filled(), err)
	}
	before := *rec
	res, err := Run(d, Options{Timed: true, Delays: delays, Profile: true, Recording: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BlockCountsByPE["cpu"]) == 0 {
		t.Fatal("profiled run with a filled recording reported no block counts")
	}
	if !reflect.DeepEqual(*rec, before) {
		t.Fatal("simulating run modified the filled recording")
	}
}
