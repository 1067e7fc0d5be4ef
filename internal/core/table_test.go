package core_test

// Tests of the estimate tables through the public estimation entry point:
// equivalence with the uncached per-block composition, sharing across
// programs with one code fingerprint, concurrent use of one cache, and
// the diagnostics of degraded tables.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/jobspec"
	"ese/internal/pum"
)

// registeredPrograms compiles every registered design at one workload
// seed: mp3 SW/SW+1/SW+2/SW+4 and jpeg SW/SW+DCT.
func registeredPrograms(t *testing.T, seed uint32) map[string]*cdfg.Program {
	t.Helper()
	progs := make(map[string]*cdfg.Program)
	for _, d := range apps.MP3DesignNames {
		prog, err := apps.CompileMP3(d, apps.MP3Config{Frames: 1, Seed: seed})
		if err != nil {
			t.Fatalf("mp3 %s: %v", d, err)
		}
		progs["mp3/"+d] = prog
	}
	for _, d := range apps.JPEGDesignNames {
		prog, err := apps.CompileJPEG(d, apps.JPEGConfig{Blocks: 1, Seed: seed})
		if err != nil {
			t.Fatalf("jpeg %s: %v", d, err)
		}
		progs["jpeg/"+d] = prog
	}
	return progs
}

// uncached is the reference: Algorithm 2 composed afresh on Algorithm 1's
// schedule of every block, in dense block order.
func uncached(prog *cdfg.Program, p *pum.PUM, detail core.Detail) []core.Estimate {
	var out []core.Estimate
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			out = append(out, core.ComposeEstimate(core.ScheduleBlock(b, p), p, detail))
		}
	}
	return out
}

// sameTable fails unless t holds want block by block, with totals and
// tallies to match.
func sameTable(t *testing.T, label string, tab *core.Table, want []core.Estimate) {
	t.Helper()
	if tab == nil {
		t.Fatalf("%s: nil table", label)
	}
	if !reflect.DeepEqual(tab.Estimates(), want) {
		for i := range want {
			if i >= tab.Len() || tab.Estimates()[i] != want[i] {
				t.Fatalf("%s: block %d of %d: got %+v, want %+v", label, i, len(want), tab.Estimates()[i], want[i])
			}
		}
		t.Fatalf("%s: table has %d estimates, want %d", label, tab.Len(), len(want))
	}
	degraded, unmapped := 0, 0
	for i, e := range want {
		if tab.Totals()[i] != e.Total {
			t.Fatalf("%s: block %d total %v, want %v", label, i, tab.Totals()[i], e.Total)
		}
		if e.Unmapped > 0 {
			degraded++
			unmapped += e.Unmapped
		}
	}
	if tab.DegradedBlocks() != degraded || tab.UnmappedOps() != unmapped {
		t.Fatalf("%s: tallies %d/%d, want %d/%d", label, tab.DegradedBlocks(), tab.UnmappedOps(), degraded, unmapped)
	}
}

// TestEstimateTablesMatchUncached: every registered design, annotated on
// the calibrated MicroBlaze at every standard cache configuration, on
// CustomHW and on DualIssue, under full, overlap and schedule-only detail,
// through an unbounded and a small bounded cache, equals the uncached
// per-block composition — on the building call and on the call that hits.
func TestEstimateTablesMatchUncached(t *testing.T) {
	spec := jobspec.DefaultTLM()
	base, err := spec.BaseModel()
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*pum.PUM{
		"customhw":  pum.CustomHW("hw", 100_000_000),
		"dualissue": pum.DualIssue(),
	}
	for _, cc := range pum.StandardCacheConfigs {
		m, err := base.WithCache(cc)
		if err != nil {
			t.Fatal(err)
		}
		models[fmt.Sprintf("microblaze/%d-%d", cc.ISize, cc.DSize)] = m
	}
	details := map[string]core.Detail{"full": core.FullDetail, "overlap": core.OverlapDetail, "sched": {}}
	progs := registeredPrograms(t, 0)
	caches := map[string]*core.Cache{"unbounded": core.NewCache(), "bounded": core.NewCacheLimit(128)}
	for pname, prog := range progs {
		for mname, m := range models {
			for dname, detail := range details {
				want := uncached(prog, m, detail)
				for cname, c := range caches {
					for _, pass := range []string{"build", "hit"} {
						label := fmt.Sprintf("%s/%s/%s/%s/%s", pname, mname, dname, cname, pass)
						tab, err := core.EstimateBlocksCtx(context.Background(), prog, m, detail,
							core.EstOptions{Workers: 2, Cache: c})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameTable(t, label, tab, want)
					}
				}
			}
		}
	}
	if ev := caches["bounded"].Stats().Evictions; ev == 0 {
		t.Error("the bounded cache never evicted")
	}
	if _, est := caches["bounded"].Len(); est > 128 {
		t.Errorf("bounded cache holds %d block estimates, limit 128", est)
	}
}

// TestEstimateTablesSharedAcrossSeeds: two seeds of one design are
// different programs with one code fingerprint, so they share one table;
// the second annotation is a pure hit (n estimate hits, no schedule
// lookup), and each seed still equals its own uncached annotation.
func TestEstimateTablesSharedAcrossSeeds(t *testing.T) {
	a, err := apps.CompileMP3("SW+2", apps.MP3Config{Frames: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.CompileMP3("SW+2", apps.MP3Config{Frames: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.CodeFingerprint() != b.CodeFingerprint() {
		t.Fatal("two seeds of one design should be distinct programs with one code fingerprint")
	}
	m := pum.MicroBlaze()
	c := core.NewCache()
	ta, err := core.EstimateBlocksCtx(context.Background(), a, m, core.FullDetail, core.EstOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	tb, err := core.EstimateBlocksCtx(context.Background(), b, m, core.FullDetail, core.EstOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if ta != tb {
		t.Fatal("the second seed built its own table")
	}
	want := core.CacheStats{EstHits: before.EstHits + uint64(b.NumBlocks()),
		EstMisses: before.EstMisses, SchedHits: before.SchedHits, SchedMisses: before.SchedMisses}
	if after != want {
		t.Fatalf("second seed counted %+v, want %+v (a pure hit of %d estimates)", after, want, b.NumBlocks())
	}
	sameTable(t, "seed 1", ta, uncached(a, m, core.FullDetail))
	sameTable(t, "seed 2", tb, uncached(b, m, core.FullDetail))
}

// snapshot deep-copies a table's contents.
func snapshot(tab *core.Table) ([]core.Estimate, []float64) {
	return append([]core.Estimate(nil), tab.Estimates()...), append([]float64(nil), tab.Totals()...)
}

// TestEstimateTablesConcurrent: goroutines annotate shared and distinct
// (program, model) pairs through one cache. Every result equals the
// serial one, and no stored table changes: a copy taken after the first
// round still equals every table after a second round of concurrent hits
// and readers. CI runs it under -race -count=10.
func TestEstimateTablesConcurrent(t *testing.T) {
	progs := registeredPrograms(t, 0)
	type pair struct {
		prog *cdfg.Program
		p    *pum.PUM
		want []core.Estimate
	}
	var pairs []pair
	for _, name := range []string{"mp3/SW", "mp3/SW+4", "jpeg/SW", "jpeg/SW+DCT"} {
		for _, m := range []*pum.PUM{pum.MicroBlaze(), pum.DualIssue(), pum.CustomHW("hw", 100_000_000)} {
			pairs = append(pairs, pair{prog: progs[name], p: m, want: uncached(progs[name], m, core.FullDetail)})
		}
	}
	c := core.NewCache()
	const goroutines = 8
	round := func(read bool) [][]*core.Table {
		got := make([][]*core.Table, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Every goroutine walks all pairs (shared), starting at its
				// own offset (distinct pairs in flight at once).
				for k := range pairs {
					pr := pairs[(k+g)%len(pairs)]
					tab, err := core.EstimateBlocksCtx(context.Background(), pr.prog, pr.p, core.FullDetail,
						core.EstOptions{Workers: 2, Cache: c})
					if err != nil {
						t.Error(err)
						return
					}
					if read {
						sum := 0.0
						for _, d := range tab.Totals() {
							sum += d
						}
						_ = sum
					}
					got[g] = append(got[g], tab)
				}
			}(g)
		}
		wg.Wait()
		return got
	}
	check := func(got [][]*core.Table) {
		for g, tabs := range got {
			for k, tab := range tabs {
				pr := pairs[(k+g)%len(pairs)]
				sameTable(t, fmt.Sprintf("goroutine %d pair %d", g, (k+g)%len(pairs)), tab, pr.want)
			}
		}
	}
	first := round(false)
	check(first)
	type copyOf struct {
		est    []core.Estimate
		totals []float64
	}
	copies := make(map[*core.Table]copyOf)
	for _, tabs := range first {
		for _, tab := range tabs {
			e, d := snapshot(tab)
			copies[tab] = copyOf{e, d}
		}
	}
	second := round(true)
	check(second)
	for tab, cp := range copies {
		e, d := snapshot(tab)
		if !reflect.DeepEqual(e, cp.est) || !reflect.DeepEqual(d, cp.totals) {
			t.Fatal("a stored table changed after it was shared")
		}
	}
	for _, tabs := range second {
		for _, tab := range tabs {
			if _, ok := copies[tab]; !ok {
				t.Fatal("a warm round built a table instead of hitting the stored one")
			}
		}
	}
}

// TestEstimateTablesDegradedEveryCall: a table with degraded blocks is
// stored once but reported on every call — one Warning per degraded block
// whether the call built or hit it — and strict mode fails every call.
func TestEstimateTablesDegradedEveryCall(t *testing.T) {
	prog, err := apps.Compile("mul.c", `
int a;
void main() {
  int i;
  a = 3;
  for (i = 0; i < 4; i = i + 1) {
    a = a * i;
  }
  out(a);
}`)
	if err != nil {
		t.Fatal(err)
	}
	p := pum.MicroBlaze()
	delete(p.Ops, cdfg.ClassMul)
	c := core.NewCache()
	var want int
	for call := 0; call < 3; call++ {
		var diags diag.List
		tab, err := core.EstimateBlocksCtx(context.Background(), prog, p, core.FullDetail,
			core.EstOptions{Cache: c, Diags: &diags})
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		want = tab.DegradedBlocks()
		if want == 0 {
			t.Fatal("no degraded block despite the missing multiplier")
		}
		if n := diags.Count(diag.Warning); n != want {
			t.Fatalf("call %d: %d warnings, want one per degraded block (%d)", call, n, want)
		}
	}
	for call := 0; call < 2; call++ {
		var diags diag.List
		tab, err := core.EstimateBlocksCtx(context.Background(), prog, p, core.FullDetail,
			core.EstOptions{Cache: c, Diags: &diags, Strict: true})
		var d diag.Diagnostic
		if tab != nil || !errors.As(err, &d) || d.Severity != diag.Error || d.Stage != diag.StageAnnotate {
			t.Fatalf("strict call %d: table %v, err %v; want an annotate-stage error", call, tab != nil, err)
		}
		if diags.Count(diag.Error) != 1 {
			t.Fatalf("strict call %d recorded %d errors, want 1", call, diags.Count(diag.Error))
		}
	}
	if st := c.Stats(); st.EstMisses == 0 || st.EstHits == 0 {
		t.Fatalf("degraded table was not stored and hit: %+v", st)
	}
}
