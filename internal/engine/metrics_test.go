package engine

import (
	"strings"
	"testing"

	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
)

const metricsSrc = `
int buf[4];
void main() {
  int i;
  for (i = 0; i < 4; i++) buf[i] = i * 3;
  send(0, buf, 4);
}
void worker() {
  int w[4];
  recv(0, w, 4);
  out(w[3]);
}
`

// TestPipelineMetricsSnapshot checks the full observability wiring: every
// stage a run passes through leaves a wall-clock histogram, the annotation
// pool leaves its counters, the simulation leaves the kernel/TLM counters,
// and the snapshot folds in the cache's hit/miss/entry numbers.
func TestPipelineMetricsSnapshot(t *testing.T) {
	pl := New(Options{})
	prog, err := pl.Compile("m.c", metricsSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &platform.Design{
		Name:    "m",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb},
			{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: pum.CustomHW("acc", 100_000_000)},
		},
	}
	res, err := pl.Simulate(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	snap := pl.MetricsSnapshot()
	for _, h := range []string{
		"pipeline.stage.parse.seconds",
		"pipeline.stage.check.seconds",
		"pipeline.stage.lower.seconds",
		"pipeline.stage.annotate.seconds",
		"pipeline.stage.simulate.seconds",
		"est.pool.worker.blocks",
	} {
		st, ok := snap.Histograms[h]
		if !ok || st.Count == 0 {
			t.Errorf("histogram %q missing or empty", h)
		}
	}
	if snap.Counters["est.blocks"] == 0 {
		t.Error("est.blocks counter is zero")
	}
	if snap.Counters["tlm.steps"] != res.Steps {
		t.Errorf("tlm.steps = %d, want %d", snap.Counters["tlm.steps"], res.Steps)
	}
	if snap.Counters["sim.dispatches"] == 0 {
		t.Error("sim.dispatches counter is zero")
	}
	// Cache counters are folded in: the two annotations (one per PE) at
	// least miss once, and re-annotating the same PE hits.
	if snap.Counters["cache.sched.misses"] == 0 {
		t.Error("cache.sched.misses is zero after annotation")
	}
	if snap.Gauges["cache.entries.sched"] == 0 {
		t.Error("cache.entries.sched gauge is zero")
	}
	annotateOK(t, pl, prog, mb)
	snap2 := pl.MetricsSnapshot()
	if snap2.Counters["cache.est.hits"] == 0 {
		t.Error("re-annotation did not hit the estimate cache")
	}
	// The snapshot renders deterministically and mentions the stages.
	if s := snap2.String(); !strings.Contains(s, "pipeline.stage.annotate.seconds") {
		t.Errorf("snapshot render missing stage metric:\n%s", s)
	}
}

// TestCacheLimitEvicts pins the bounded-cache contract: entries beyond the
// limit evict a resident entry and count it.
func TestCacheLimitEvicts(t *testing.T) {
	pl := New(Options{CacheLimit: 4})
	prog, err := pl.Compile("m.c", metricsSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Two distinct models: more unique (block, model) keys than the limit.
	annotateOK(t, pl, prog, pum.MicroBlaze())
	annotateOK(t, pl, prog, pum.DualIssue())
	st := pl.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with limit 4 (stats %+v)", st)
	}
	snap := pl.MetricsSnapshot()
	if snap.Counters["cache.evictions"] != st.Evictions {
		t.Errorf("snapshot evictions %d != stats %d", snap.Counters["cache.evictions"], st.Evictions)
	}
	if got := snap.Gauges["cache.entries.sched"]; got > 4 {
		t.Errorf("sched entries %d exceed limit 4", got)
	}
	if got := snap.Gauges["cache.entries.est"]; got > 4 {
		t.Errorf("est entries %d exceed limit 4", got)
	}
}
