package dse

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"ese/internal/core"
	"ese/internal/jobspec"
	"ese/internal/metrics"
)

// testSweep is a small multi-axis sweep: 2 designs x 2 depths x 2 cache
// geometries = 8 timed points, cheap enough for unit tests.
func testSweep() *Sweep {
	return &Sweep{
		Name:   "unit",
		Frames: 1,
		Axes: Axes{
			Designs: []string{"SW", "SW+1"},
			Depths:  []int{0, 5},
			Caches:  []CacheGeom{{I: 0, D: 0}, {I: 8192, D: 4096}},
		},
	}
}

func TestExpandDeterministicAndFiltered(t *testing.T) {
	s := testSweep()
	a, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("expanded to %d points, want 8", len(a))
	}
	b, _ := s.Expand()
	for i := range a {
		if a[i].Index != i || b[i].Index != i {
			t.Fatalf("point %d has index %d/%d", i, a[i].Index, b[i].Index)
		}
		if a[i].Spec.Fingerprint() != b[i].Spec.Fingerprint() {
			t.Fatalf("expansion not deterministic at point %d", i)
		}
	}

	// Designs invalid for an app are skipped for that app, kept for the
	// app that knows them.
	multi := &Sweep{Axes: Axes{
		Apps:    []string{jobspec.AppMP3, jobspec.AppJPEG},
		Designs: []string{"SW", "SW+DCT"},
	}}
	pts, err := multi.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 { // mp3/SW, jpeg/SW, jpeg/SW+DCT
		t.Fatalf("filtered expansion yielded %d points, want 3", len(pts))
	}

	// The area filter prunes, the limit guards.
	filtered := testSweep()
	filtered.Filter = &Filter{MaxArea: areaProxy("SW", 0, 0, nil)}
	pts, err = filtered.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Spec.Design != "SW" {
			t.Fatalf("area filter kept %s (area %g)", p.Spec.Design, p.Area)
		}
	}
	capped := testSweep()
	capped.Limit = 4
	if _, err := capped.Expand(); err == nil {
		t.Fatal("over-limit expansion accepted")
	}

	// Validation rejects junk axes.
	for _, bad := range []*Sweep{
		{Axes: Axes{Apps: []string{"h264"}}},
		{Axes: Axes{Designs: []string{"SW+9"}}},
		{Axes: Axes{Depths: []int{99}}},
		{Engine: jobspec.EngineBoard},
		{Axes: Axes{Caches: []CacheGeom{{I: -1}}}},
		{Frames: jobspec.MaxFrames + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad sweep accepted: %+v", bad)
		}
	}
}

func TestSweepFingerprintNormalized(t *testing.T) {
	implicit := &Sweep{}
	explicit := &Sweep{
		Name: "sweep", Frames: 1, Engine: jobspec.EngineTimed,
		Axes: Axes{Apps: []string{jobspec.AppMP3}, Caches: []CacheGeom{{I: 8192, D: 4096}}},
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("explicit-default sweep fingerprints apart from the implicit one")
	}
	other := &Sweep{Axes: Axes{Depths: []int{3, 5}}}
	if implicit.Fingerprint() == other.Fingerprint() {
		t.Fatal("distinct sweeps share a fingerprint")
	}
}

func TestParseSweepRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweep([]byte(`{"axes":{"depthz":[3]}}`)); err == nil {
		t.Fatal("unknown axis field accepted")
	}
	s, err := ParseSweep([]byte(`{"name":"x","axes":{"depths":[3,5]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Axes.Depths) != 2 {
		t.Fatalf("parsed sweep lost its axes: %+v", s)
	}
}

func TestParetoFront(t *testing.T) {
	rows := []Row{
		{Index: 0, EndPs: 100, Area: 10, Steps: 5},
		{Index: 1, EndPs: 90, Area: 20, Steps: 5},  // trades area for time: kept
		{Index: 2, EndPs: 100, Area: 11, Steps: 5}, // dominated by 0
		{Index: 3, EndPs: 100, Area: 10, Steps: 5}, // equal to 0: kept
		{Index: 4, EndPs: 80, Area: 9, Steps: 6},   // trades steps: kept
	}
	front := ParetoFront(rows)
	got := map[int]bool{}
	for _, r := range front {
		got[r.Index] = true
	}
	if !got[0] || !got[1] || got[2] || !got[3] || !got[4] {
		t.Fatalf("front = %v", front)
	}
}

func TestRunCheckpointResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TLM simulations")
	}
	sweep := testSweep()
	ctx := context.Background()

	// Reference: one uninterrupted run, no state.
	ref, err := Run(ctx, sweep, Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != 8 {
		t.Fatalf("reference run produced %d rows", len(ref.Rows))
	}
	var refCSV bytes.Buffer
	if err := WriteCSV(&refCSV, ref.Rows); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: halt after 3 points, then resume to completion.
	dir := t.TempDir()
	_, err = Run(ctx, sweep, Options{Shards: 3, Workers: 2, StateDir: dir, HaltAfter: 3})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}

	// Simulate a kill mid-append: a dangling partial line must be
	// discarded on resume, not poison the shard.
	shard0 := shardPath(dir, 0)
	f, err := os.OpenFile(shard0, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":0,"fp":"truncat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var events []Progress
	res, err := Run(ctx, sweep, Options{
		Shards: 3, Workers: 2, StateDir: dir,
		Progress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Summary.Resumed != 3 {
		t.Fatalf("resume restored %d points, want 3", res.Summary.Resumed)
	}
	if res.Summary.Resumed+res.Summary.Ran != 8 {
		t.Fatalf("resumed %d + ran %d != 8 points", res.Summary.Resumed, res.Summary.Ran)
	}
	var gotCSV bytes.Buffer
	if err := WriteCSV(&gotCSV, res.Rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("kill/resume CSV differs from the uninterrupted run:\n%s\nvs\n%s",
			gotCSV.String(), refCSV.String())
	}
	if len(events) != 8 {
		t.Fatalf("progress fired %d events, want 8", len(events))
	}
	seenResumed := false
	for _, ev := range events {
		if ev.Total != 8 {
			t.Fatalf("progress event with total %d", ev.Total)
		}
		seenResumed = seenResumed || ev.Resumed
	}
	if !seenResumed {
		t.Fatal("no progress event marked resumed")
	}

	// Pareto and JSON are deterministic too.
	var j1, j2 bytes.Buffer
	if err := WriteJSON(&j1, ref.Pareto); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j2, res.Pareto); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("Pareto JSON differs between runs")
	}

	// A different sweep must refuse the same state directory.
	other := testSweep()
	other.Frames = 3
	if _, err := Run(ctx, other, Options{StateDir: dir}); err == nil {
		t.Fatal("state dir accepted for a different sweep")
	}

	// Tampered checkpoint rows (fingerprint mismatch) are rejected.
	data, err := os.ReadFile(shard0)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"fp":"`), []byte(`"fp":"dead`), 1)
	if err := os.WriteFile(shard0, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, sweep, Options{Shards: 3, StateDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("tampered checkpoint accepted: %v", err)
	}
}

// Workers that finish while the HaltAfter-th point is being reported
// are past the budget: the halted run checkpoints exactly HaltAfter
// points, however many workers finish together.
func TestRunHaltAfterIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TLM simulations")
	}
	const haltAfter = 3
	sweep := testSweep()
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	_, err := Run(context.Background(), sweep, Options{
		Shards: 3, Workers: 8, StateDir: dir, HaltAfter: haltAfter,
		Runner: &jobspec.Runner{Cache: core.NewCache(), Metrics: reg},
		Progress: func(p Progress) {
			if p.Done != haltAfter {
				return
			}
			// Stall until every other worker has simulated its point,
			// then give them time to checkpoint it.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if reg.Snapshot().Histograms["pipeline.stage.simulate.seconds"].Count == 8 {
					break
				}
			}
			time.Sleep(50 * time.Millisecond)
		},
	})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}
	res, err := Run(context.Background(), sweep, Options{Shards: 3, Workers: 8, StateDir: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Summary.Resumed != haltAfter || res.Summary.Ran != 8-haltAfter {
		t.Fatalf("resumed %d and ran %d points, want %d and %d", res.Summary.Resumed, res.Summary.Ran, haltAfter, 8-haltAfter)
	}
}

func TestRunSharesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TLM simulations")
	}
	// Cache-geometry and branch axes reuse schedules: the same datapath
	// under 3 cache geometries only schedules once, so the sweep must
	// clear a >50% hit rate.
	sweep := &Sweep{
		Frames: 1,
		Axes: Axes{
			Designs:    []string{"SW"},
			Caches:     []CacheGeom{{0, 0}, {2048, 2048}, {8192, 4096}, {16384, 16384}, {32768, 16384}},
			BranchMiss: []float64{0.05, 0.2},
		},
	}
	r := &jobspec.Runner{Cache: core.NewCache()}
	res, err := Run(context.Background(), sweep, Options{Runner: r, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.CacheHitRate <= 0.5 {
		t.Fatalf("cache hit rate %.2f, want > 0.5 (hits %d/%d misses %d/%d)",
			res.Summary.CacheHitRate, res.Summary.SchedHits, res.Summary.EstHits,
			res.Summary.SchedMisses, res.Summary.EstMisses)
	}
	// Distinct trade-offs must survive into the front.
	if len(res.Pareto) == 0 || len(res.Pareto) > len(res.Rows) {
		t.Fatalf("pareto front size %d of %d rows", len(res.Pareto), len(res.Rows))
	}
}

// TestRunReplayRowsMatchFreshRunners: in a sweep whose points share
// workloads, the Runner replays most points from recorded transactions;
// the rows must be byte-identical to every point simulated alone on a
// fresh Runner, which never replays.
func TestRunReplayRowsMatchFreshRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TLM simulations")
	}
	sweep := &Sweep{
		Frames: 1,
		Axes: Axes{
			Apps:    []string{jobspec.AppMP3, jobspec.AppJPEG},
			Designs: []string{"SW", "SW+4", "SW+DCT"},
			Depths:  []int{0, 5},
			FUMixes: []map[string]int{nil, {"alu": 2}},
			Caches:  []CacheGeom{{0, 0}, {2048, 2048}, {8192, 4096}},
		},
	}
	ctx := context.Background()
	reg := metrics.NewRegistry()
	res, err := Run(ctx, sweep, Options{Runner: &jobspec.Runner{Cache: core.NewCache(), Metrics: reg}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	points, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]Row, len(points))
	for i, pt := range points {
		r, err := (&jobspec.Runner{}).Run(ctx, &pt.Spec)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		fresh[i] = rowFor(pt, r)
	}
	var got, want bytes.Buffer
	if err := WriteJSON(&got, res.Rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&want, fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sweep rows differ from fresh Runners' rows\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	if n := reg.Snapshot().Counters["jobspec.replay.hits"]; n == 0 {
		t.Fatalf("none of the %d points replayed", len(points))
	}
}

func TestWriteCSVGolden(t *testing.T) {
	miss := 0.1
	rows := []Row{
		{Index: 0, App: "mp3", Design: "SW", ICache: 8192, DCache: 4096, Area: 17.5, EndPs: 1000, BusCycles: 10, Steps: 42},
		{Index: 1, App: "jpeg", Design: "SW+DCT", Depth: 5, Issue: 2, FUs: "alu=2", BranchMiss: &miss, Area: 31, EndPs: 900, Steps: 40},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	want := csvHeader + "\n" +
		"0,mp3,SW,0,0,,8192,4096,,,17.5,1000,10,42\n" +
		"1,jpeg,SW+DCT,5,2,alu=2,0,0,0.1,,31,900,0,40\n"
	if sb.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRunMemoCountersSameAtAnyWorkers: the Runner fills its workload memo,
// and its cache each schedule and estimate table, single-flight, so a
// sweep's memo and cache counters do not depend on how many points run at
// once. Each of the six workloads (four MP3 designs, two JPEG ones)
// compiles on its first point, records on its second and replays on the
// other six, and the sweep computes 313 schedules and 3,139 block
// estimates, at one worker as at four.
func TestRunMemoCountersSameAtAnyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TLM simulations")
	}
	sweep := &Sweep{
		Frames: 1,
		Axes: Axes{
			Apps:   []string{jobspec.AppMP3, jobspec.AppJPEG},
			Depths: []int{0, 5},
			Caches: []CacheGeom{{0, 0}, {2048, 2048}, {8192, 4096}, {16384, 16384}},
		},
	}
	want := map[string]uint64{
		"jobspec.program.misses": 6,
		"jobspec.program.hits":   42,
		"jobspec.replay.records": 6,
		"jobspec.replay.hits":    36,
		"tlm.replays":            36,
	}
	var serial Summary
	for _, workers := range []int{1, 4} {
		reg := metrics.NewRegistry()
		res, err := Run(context.Background(), sweep, Options{Runner: &jobspec.Runner{Cache: core.NewCache(), Metrics: reg}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 48 {
			t.Fatalf("%d workers: %d rows, want 48", workers, len(res.Rows))
		}
		got := reg.Snapshot().Counters
		for name, n := range want {
			if got[name] != n {
				t.Errorf("%d workers: %s = %d, want %d", workers, name, got[name], n)
			}
		}
		sum := res.Summary
		if sum.SchedMisses != 313 || sum.EstMisses != 3139 {
			t.Errorf("%d workers: %d schedule and %d estimate misses, want 313 and 3139", workers, sum.SchedMisses, sum.EstMisses)
		}
		if workers == 1 {
			serial = sum
		} else if sum.SchedHits != serial.SchedHits || sum.SchedMisses != serial.SchedMisses ||
			sum.EstHits != serial.EstHits || sum.EstMisses != serial.EstMisses {
			t.Errorf("%d workers: cache counters %d/%d schedule and %d/%d estimate hits/misses, at one worker %d/%d and %d/%d",
				workers, sum.SchedHits, sum.SchedMisses, sum.EstHits, sum.EstMisses,
				serial.SchedHits, serial.SchedMisses, serial.EstHits, serial.EstMisses)
		}
	}
}
