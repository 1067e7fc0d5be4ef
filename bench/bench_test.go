package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ese/internal/calib"
	"ese/internal/dse"
	"ese/internal/pum"
)

// tinySizing shrinks every workload so the smoke test runs in seconds.
// Outputs at this size are not pinned by golden.json; the test compares
// runs with each other instead.
func tinySizing(t *testing.T) sizing {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	miss := []float64{0.1}
	return sizing{
		root: root,
		sweep: &dse.Sweep{
			Frames: 1, Calibrate: true,
			Axes: dse.Axes{
				Apps: []string{"mp3", "jpeg"}, Designs: []string{"SW"}, Depths: []int{0, 3},
				Caches: []dse.CacheGeom{{I: 8192, D: 4096}}, BranchMiss: miss,
			},
		},
		tlmFrames: 1,
		tlmBlocks: 2,
		score: calib.Options{
			Frames: 1, Blocks: 2, Trains: []string{"mp3"}, Apps: []string{"mp3"},
			Designs: []string{"SW"}, Configs: []pum.CacheCfg{{ISize: 2048, DSize: 2048}, {ISize: 8192, DSize: 4096}},
		},
	}
}

func testSpec(t *testing.T, root string) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// exactCounters are the window counters that depend only on the inputs.
var exactCounters = []string{"tlm.steps", "sim.dispatches", "sim.fires", "tlm.bus.words"}

// TestSmoke runs every workload twice at a tiny size, untraced and traced,
// and checks that every metric BENCHMARK.json names is reported with its
// unit, that both runs agree on every exact count, digest and MAPE, and
// that the traced window reproduces the untraced outputs.
func TestSmoke(t *testing.T) {
	sz := tinySizing(t)
	spec := testSpec(t, sz.root)
	for _, ws := range spec.Workloads {
		ws := ws
		t.Run(ws.Name, func(t *testing.T) {
			w, ok := workloads[ws.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json workload %s is not implemented", ws.Name)
			}
			o := options{seed: 1, pages: 1, setups: 1, size: sz}
			var runs [2]*outcome
			for i := range runs {
				out, err := run(context.Background(), w, o, true)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = out
			}
			a, b := runs[0], runs[1]

			traced, err := report(io.Discard, spec, ws.Name, a, o)
			if err != nil {
				t.Fatal(err)
			}
			untraced, err := report(io.Discard, spec, ws.Name, &outcome{setupS: a.setupS, setupFactor: a.setupFactor, untraced: a.untraced}, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{traced, untraced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("run not correct: %+v", r)
				}
			}
			for _, set := range []struct {
				got  *result
				want []metricSpec
			}{{untraced, spec.EndToEnd}, {traced, spec.PerLayer}} {
				if len(set.got.Metrics) != len(set.want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(set.got.Metrics), len(set.want))
				}
				for _, m := range set.want {
					if got, ok := set.got.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			}
			for _, m := range []string{"throughput_per_s", "latency_ms_p50", "setup_s", "max_rss_mb"} {
				if v := untraced.Metrics[m].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}

			digests := func(win *window) map[int]string {
				m := map[int]string{}
				for _, p := range win.pages {
					m[p.page] = p.digest
				}
				return m
			}
			want := digests(a.untraced)
			for name, win := range map[string]*window{"traced": a.traced, "second untraced": b.untraced, "second traced": b.traced} {
				got := digests(win)
				if len(got) != len(want) {
					t.Errorf("%s window ran %d pages, first %d", name, len(got), len(want))
				}
				for p, d := range want {
					if got[p] != d {
						t.Errorf("%s window: page %d digest %s, first run %s", name, p, got[p], d)
					}
				}
			}
			for _, c := range exactCounters {
				if a.untraced.count[c] != b.untraced.count[c] || a.untraced.count[c] != a.traced.count[c] {
					t.Errorf("counter %s: %v and %v untraced, %v traced", c, a.untraced.count[c], b.untraced.count[c], a.traced.count[c])
				}
			}
			for k, v := range a.untraced.info {
				if b.untraced.info[k] != v || a.traced.info[k] != v {
					t.Errorf("%s: %v and %v untraced, %v traced", k, v, b.untraced.info[k], a.traced.info[k])
				}
			}
			if len(a.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := a.tracer.write(path, a.trackOf); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestStandardInputs checks what the standard runs rely on without
// running them: the committed sweep's size, an implementation of every
// BENCHMARK.json workload, and one golden digest per pool page.
func TestStandardInputs(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sz, err := standardSizing(root)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sz.sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7680 {
		t.Errorf("committed sweep expands to %d points, want 7680", len(points))
	}
	spec := testSpec(t, root)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark drives %d", len(spec.Workloads), len(workloads))
	}
	gold, err := loadGolden(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range spec.Workloads {
		w := workloads[ws.Name]
		if w == nil {
			t.Errorf("workload %s is not implemented", ws.Name)
			continue
		}
		if n := w.pool(sz); len(gold[ws.Name]) != n && n > 0 {
			t.Errorf("golden.json has %d digests for %s, pool has %d pages", len(gold[ws.Name]), ws.Name, n)
		}
	}
}

// TestJudge pins the compare verdicts.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", base, base, "unchanged"},
		{"slightly slower", base, shift(1.02), "unchanged"},
		{"much slower", base, shift(1.2), "regressed"},
		{"much faster", base, shift(0.8), "improved"},
		{"noisy", noisy, noisy, "unresolved"},
		{"noisy but always faster", noisy, shift(0.5), "improved"},
	} {
		if got := judge(tc.parent, tc.change, lower).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.05}
	if got := judge(base, shift(1.2), higher).verdict; got != "improved" {
		t.Errorf("higher throughput: %s, want improved", got)
	}
}
