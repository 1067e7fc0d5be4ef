package engine

import (
	"sync"
	"testing"
	"time"

	"ese/internal/apps"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/metrics"
	"ese/internal/pum"
)

// TestSharedCacheInjection proves that two pipelines constructed around one
// injected cache handle share schedules: the second pipeline's annotation
// of the same program under the same model is served entirely from cache.
func TestSharedCacheInjection(t *testing.T) {
	prog := testProgram(t)
	model := pum.MicroBlaze()
	shared := core.NewCache()

	p1 := New(Options{Cache: shared})
	a1 := annotateOK(t, p1, prog, model)
	warm := shared.Stats()
	if warm.SchedMisses == 0 {
		t.Fatalf("first pipeline should miss the shared cache, got %+v", warm)
	}

	p2 := New(Options{Cache: shared})
	a2 := annotateOK(t, p2, prog, model)
	st := shared.Stats()
	if st.SchedMisses != warm.SchedMisses || st.EstMisses != warm.EstMisses {
		t.Fatalf("second pipeline recompiled despite shared cache: warm=%+v after=%+v", warm, st)
	}
	if st.EstHits <= warm.EstHits {
		t.Fatalf("second pipeline did not hit the shared cache: warm=%+v after=%+v", warm, st)
	}
	if a1.Table != a2.Table {
		t.Fatal("second pipeline did not share the first pipeline's estimate table")
	}

	// Both pipelines fold the shared handle's counters into their
	// snapshots, so either view reconciles with the cache itself.
	snap := p2.MetricsSnapshot()
	if snap.Counters["cache.est.hits"] != st.EstHits {
		t.Fatalf("snapshot est hits %d, cache reports %d", snap.Counters["cache.est.hits"], st.EstHits)
	}

	// NoCache still wins over an injected handle.
	p3 := New(Options{Cache: shared, NoCache: true})
	if p3.cache != nil {
		t.Fatal("NoCache pipeline kept the injected cache")
	}
}

// TestSharedMetricsInjection proves that pipelines built around one
// registry aggregate their stage timings in it.
func TestSharedMetricsInjection(t *testing.T) {
	prog := testProgram(t)
	reg := metrics.NewRegistry()
	p1 := New(Options{Metrics: reg})
	p2 := New(Options{Metrics: reg})
	annotateOK(t, p1, prog, pum.MicroBlaze())
	annotateOK(t, p2, prog, pum.MicroBlaze())
	if got := reg.Snapshot().Histograms["pipeline.stage.annotate.seconds"].Count; got != 2 {
		t.Fatalf("shared registry saw %d annotate stages, want 2", got)
	}
	if p1.Metrics() != reg || p2.Metrics() != reg {
		t.Fatal("Metrics() does not return the injected registry")
	}
}

// TestStageHook proves the hook observes every stage of a compile in flow
// order, with non-negative durations, and is safe under concurrent
// pipeline use.
func TestStageHook(t *testing.T) {
	var mu sync.Mutex
	var stages []diag.Stage
	pl := New(Options{
		Simplify: true,
		StageHook: func(s diag.Stage, d time.Duration) {
			if d < 0 {
				t.Errorf("stage %s reported negative duration %v", s, d)
			}
			mu.Lock()
			stages = append(stages, s)
			mu.Unlock()
		},
	})
	src, err := apps.MP3Source("SW", apps.TrainMP3)
	if err != nil {
		t.Fatalf("MP3Source: %v", err)
	}
	prog, err := pl.Compile("mp3.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	annotateOK(t, pl, prog, pum.MicroBlaze())

	want := []diag.Stage{diag.StageParse, diag.StageCheck, diag.StageLower, diag.StageSimplify, diag.StageVerify, diag.StageAnnotate}
	mu.Lock()
	defer mu.Unlock()
	if len(stages) != len(want) {
		t.Fatalf("hook fired for %v, want %v", stages, want)
	}
	for i, s := range want {
		if stages[i] != s {
			t.Fatalf("hook order %v, want %v", stages, want)
		}
	}
}
