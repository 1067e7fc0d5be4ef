package jobspec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/engine"
	"ese/internal/metrics"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// memoBase is a small uncalibrated TLM spec the memo tests vary.
func memoBase() Spec {
	s := DefaultTLM()
	s.Frames = 1
	s.Calibrate = false
	return s
}

// TestProgramMemoSharing: specs that differ only in DSE axes the program
// does not depend on (tune, caches, branch model) share one lowered
// program; specs that differ in app, design, frames or seed do not. The
// hit and miss counters land in the Runner's registry.
func TestProgramMemoSharing(t *testing.T) {
	reg := metrics.NewRegistry()
	r := &Runner{Metrics: reg}
	base := memoBase()
	d0, err := r.Design(context.Background(), &base, engine.New(engine.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	miss := 0.1
	shared := map[string]func(*Spec){
		"tune":     func(s *Spec) { s.Tune = &Tune{Depth: 7, Issue: 2, FUs: map[string]int{"alu": 2}} },
		"caches":   func(s *Spec) { s.ICache, s.DCache = 16384, 16384 },
		"branch":   func(s *Spec) { s.Tune = &Tune{BranchMiss: &miss} },
		"engine":   func(s *Spec) { s.Engine = EngineFunctional },
		"seed-set": func(s *Spec) { s.Seed = defaultSeed(AppMP3) },
	}
	for name, mut := range shared {
		s := memoBase()
		mut(&s)
		d, err := r.Design(context.Background(), &s, engine.New(engine.Options{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Program != d0.Program {
			t.Errorf("%s: spec got its own program; want the shared one", name)
		}
	}
	distinct := map[string]func(*Spec){
		"app":    func(s *Spec) { s.App, s.Design = AppJPEG, "SW" },
		"design": func(s *Spec) { s.Design = "SW+1" },
		"frames": func(s *Spec) { s.Frames = 2 },
		"seed":   func(s *Spec) { s.Seed = 7 },
	}
	for name, mut := range distinct {
		s := memoBase()
		mut(&s)
		d, err := r.Design(context.Background(), &s, engine.New(engine.Options{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Program == d0.Program {
			t.Errorf("%s: spec shares the base program; want its own", name)
		}
		again, err := r.Design(context.Background(), &s, engine.New(engine.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if again.Program != d.Program {
			t.Errorf("%s: repeated spec got a second program", name)
		}
	}
	snap := reg.Snapshot()
	wantHits := uint64(len(shared) + len(distinct))
	wantMisses := uint64(1 + len(distinct))
	if got := snap.Counters["jobspec.program.hits"]; got != wantHits {
		t.Errorf("jobspec.program.hits = %d, want %d", got, wantHits)
	}
	if got := snap.Counters["jobspec.program.misses"]; got != wantMisses {
		t.Errorf("jobspec.program.misses = %d, want %d", got, wantMisses)
	}
}

// memoSpecs is a mixed batch of TLM jobs whose workloads repeat: three
// MP3 designs (SW+4 has five PEs, so bus arbitration order matters) and
// one JPEG design, each under several DSE settings, engines and execution
// tiers (the functional variant on its own seed), plus a board run of the
// JPEG workload (the board is too slow under -race for the MP3 ones).
func memoSpecs() []Spec {
	board := memoBase()
	board.App, board.Design, board.Engine = AppJPEG, "SW+DCT", EngineBoard
	specs := []Spec{board}
	miss := 0.3
	for _, w := range []struct{ app, design string }{{AppMP3, "SW"}, {AppMP3, "SW+2"}, {AppMP3, "SW+4"}, {AppJPEG, "SW+DCT"}} {
		for i, vary := range []func(*Spec){
			func(*Spec) {},
			func(s *Spec) { s.ICache, s.DCache = 2048, 2048 },
			func(s *Spec) { s.Tune = &Tune{Depth: 5, BranchMiss: &miss} },
			func(s *Spec) { s.Engine = EngineFunctional },
			func(s *Spec) { s.Exec = "compiled"; s.ICache, s.DCache = 16384, 16384 },
		} {
			s := memoBase()
			s.App, s.Design = w.app, w.design
			if i == 3 {
				s.Seed = 11
			}
			vary(&s)
			specs = append(specs, s)
		}
	}
	return specs
}

// canonicalResult renders a result without its host wall-clock fields,
// the only parts of a Result that may differ between identical jobs.
func canonicalResult(res *Result) string {
	c := *res
	c.ElapsedNs = 0
	if res.TLM != nil {
		tlm := *res.TLM
		tlm.WallNs, tlm.AnnoNs = 0, 0
		c.TLM = &tlm
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return fmt.Sprintf("unmarshalable result: %v", err)
	}
	return string(data)
}

// freshResults runs every spec on its own fresh Runner (no memo reuse).
func freshResults(t *testing.T, specs []Spec) []string {
	t.Helper()
	out := make([]string, len(specs))
	for i := range specs {
		res, err := (&Runner{}).Run(context.Background(), &specs[i])
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
		out[i] = canonicalResult(res)
	}
	return out
}

// TestProgramMemoResultsMatchFreshRunner: jobs served from memoized
// programs return byte-identical results to the same jobs on fresh
// Runners. Over three passes every workload's timed jobs first simulate,
// then record (the first memo hit) and then replay the recording; a job
// that names its execution tier never replays.
func TestProgramMemoResultsMatchFreshRunner(t *testing.T) {
	specs := memoSpecs()
	want := freshResults(t, specs)
	reg := metrics.NewRegistry()
	r := &Runner{Cache: core.NewCache(), Metrics: reg}
	replays := func() uint64 { return reg.Snapshot().Counters["jobspec.replay.hits"] }
	for pass := 0; pass < 3; pass++ {
		for i := range specs {
			before := replays()
			res, err := r.Run(context.Background(), &specs[i])
			if err != nil {
				t.Fatalf("pass %d run %d: %v", pass, i, err)
			}
			if got := canonicalResult(res); got != want[i] {
				t.Fatalf("pass %d spec %d: memoized result differs from a fresh Runner's\n got %s\nwant %s", pass, i, got, want[i])
			}
			if replays() != before && (specs[i].Engine != EngineTimed || specs[i].Exec != "auto") {
				t.Fatalf("pass %d spec %d (engine %s, exec %s) replayed", pass, i, specs[i].Engine, specs[i].Exec)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["jobspec.replay.records"]; got != 4 {
		t.Errorf("jobspec.replay.records = %d, want one per timed workload (4)", got)
	}
	if replays() == 0 {
		t.Error("no job replayed a recording")
	}
}

// TestRunnerConcurrentRuns: concurrent jobs on one Runner, racing on the
// program memo's first use and then sharing its programs, return the same
// results as fresh Runners. Run under -race this also proves shared
// programs are only read.
func TestRunnerConcurrentRuns(t *testing.T) {
	specs := memoSpecs()
	want := freshResults(t, specs)
	r := &Runner{Cache: core.NewCache(), Metrics: metrics.NewRegistry()}
	const goroutines = 4
	errs := make(chan error, goroutines*len(specs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range specs {
				i := (k + g) % len(specs)
				s := specs[i]
				res, err := r.Run(context.Background(), &s)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d spec %d: %w", g, i, err)
					return
				}
				if got := canonicalResult(res); got != want[i] {
					errs <- fmt.Errorf("goroutine %d spec %d: result differs from a fresh Runner's", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every fill is single-flight: each of the batch's 8 distinct
	// workloads compiles once and each timed one records once, however the
	// jobs interleave.
	snap := r.Metrics.Snapshot()
	const workloads = 8
	if hits, misses := snap.Counters["jobspec.program.hits"], snap.Counters["jobspec.program.misses"]; misses != workloads || hits+misses != goroutines*uint64(len(specs)) {
		t.Errorf("program memo counted %d hits and %d misses over %d jobs, want %d misses", hits, misses, goroutines*len(specs), workloads)
	}
	if got := snap.Counters["jobspec.replay.records"]; got != 4 {
		t.Errorf("jobspec.replay.records = %d, want one per timed workload (4)", got)
	}
}

// TestWaitingJobStopsAtItsDeadline: a job that needs the calibrated base
// model while another job calibrates it waits under its own deadline. It
// fails with diag.ErrDeadline while the calibration still runs, and the
// calibrating job completes.
func TestWaitingJobStopsAtItsDeadline(t *testing.T) {
	var r Runner
	calibrating := memoBase()
	calibrating.Calibrate = true
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), &calibrating)
		done <- err
	}()
	// Let the first job start the calibration. Were the second job to
	// start it instead, it would still stop at its own deadline.
	time.Sleep(5 * time.Millisecond)
	waiting := calibrating
	waiting.Timeout = Duration(10 * time.Millisecond)
	if _, err := r.Run(context.Background(), &waiting); !errors.Is(err, diag.ErrDeadline) {
		t.Errorf("waiting job: err = %v, want diag.ErrDeadline", err)
	}
	// A past deadline returns the memoized model at once, or an error
	// while the calibration runs.
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if _, err := r.memo.Model(expired, true); err == nil {
		t.Error("the waiting job returned after the calibration finished")
	}
	if err := <-done; err != nil {
		t.Fatalf("calibrating job: %v", err)
	}
}

// TestRunnerMappingMismatchFailsInTLM: designs are validated where they
// run, not when mapped, so an mp3 SW program mapped as SW+4 (whose
// hardware entries it lacks) maps and verifies, and still fails the job's
// TLM run — from tlm.Run.
func TestRunnerMappingMismatchFailsInTLM(t *testing.T) {
	ctx := context.Background()
	sw := memoBase()
	e, _, err := new(calib.Memo).Entry(ctx, sw.workload())
	if err != nil {
		t.Fatal(err)
	}
	swd, err := e.Design(pum.MicroBlaze(), pum.CacheCfg{})
	if err != nil {
		t.Fatal(err)
	}
	sw4 := memoBase()
	sw4.Design = "SW+4"
	d, err := apps.MapMP3(sw4.Design, swd.Program, pum.MicroBlaze(), pum.CacheCfg{ISize: sw4.ICache, DSize: sw4.DCache})
	if err != nil {
		t.Fatalf("SW program mapped as SW+4: %v", err)
	}
	pl, err := (&Runner{}).Pipeline(&sw4, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.VerifyDesign(d); err != nil {
		t.Fatalf("verifying the mapped design: %v", err)
	}
	_, err = pl.SimulateCtx(ctx, d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
	if err == nil || !strings.Contains(err.Error(), "not in program") {
		t.Fatalf("SW program mapped as SW+4: err = %v, want the platform's entry-not-in-program error", err)
	}
}
