// Differential tests of the execution engines over the full example
// designs: the compiled flat-instruction engine and the ahead-of-time
// generated engine must be observationally identical to the tree-walking
// reference on every MP3 design variant.
package ese

import (
	"context"
	"maps"
	"slices"
	"testing"

	"ese/internal/apps"
	"ese/internal/interp"
	"ese/internal/pum"
	"ese/internal/tlm"
)

var diffEval = apps.MP3Config{Frames: 1, Seed: 0xC0FFEE}

// TestEngineTiersCoverMP3 asserts the faster tiers accept every example
// program: the compiled engine must compile it, a pre-generated engine
// must be registered for it, and EngineAuto must resolve to the
// generated tier (never silently fall back).
func TestEngineTiersCoverMP3(t *testing.T) {
	for _, name := range apps.MP3DesignNames {
		prog, err := apps.CompileMP3(name, diffEval)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.Compile(prog); err != nil {
			t.Fatalf("%s: compiled engine rejected the program: %v", name, err)
		}
		if interp.GeneratedFor(prog) == nil {
			t.Fatalf("%s: no generated engine registered", name)
		}
		e, err := interp.NewEngine(prog, interp.EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind() != interp.EngineGen {
			t.Fatalf("%s: EngineAuto picked %v, want gen", name, e.Kind())
		}
	}
}

// TestEngineDifferentialMP3Designs runs every MP3 design's timed TLM
// under all three engines and requires identical Out streams, Steps,
// CyclesByPE, simulated end time and per-block counts.
func TestEngineDifferentialMP3Designs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-design differential is slow")
	}
	mb := MicroBlazePUM()
	cc := pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	for _, name := range apps.MP3DesignNames {
		t.Run(name, func(t *testing.T) {
			d, err := apps.MP3Design(name, diffEval, mb, cc)
			if err != nil {
				t.Fatal(err)
			}
			delays, _, err := NewPipeline(PipelineOptions{}).DelaysCtx(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			run := func(kind interp.EngineKind) *tlm.Result {
				res, err := tlm.Run(d, tlm.Options{
					Timed:    true,
					WaitMode: tlm.WaitAtTransactions,
					Delays:   delays,
					Engine:   kind,
					Profile:  true,
				})
				if err != nil {
					t.Fatalf("%v engine: %v", kind, err)
				}
				return res
			}
			rt := run(interp.EngineTree)
			for _, kind := range []interp.EngineKind{interp.EngineCompiled, interp.EngineGen} {
				rc := run(kind)
				if !maps.EqualFunc(rt.OutByPE, rc.OutByPE, slices.Equal[[]int32]) {
					t.Fatalf("%v: OutByPE diverges", kind)
				}
				if rt.Steps != rc.Steps {
					t.Fatalf("%v: Steps diverge: tree %d, %v %d", kind, rt.Steps, kind, rc.Steps)
				}
				if !maps.Equal(rt.CyclesByPE, rc.CyclesByPE) {
					t.Fatalf("%v: CyclesByPE diverge:\n  tree: %v\n  %v:  %v", kind, rt.CyclesByPE, kind, rc.CyclesByPE)
				}
				if rt.EndPs != rc.EndPs {
					t.Fatalf("%v: EndPs diverges: tree %d, %v %d", kind, rt.EndPs, kind, rc.EndPs)
				}
				if rt.BusWords != rc.BusWords {
					t.Fatalf("%v: BusWords diverge: tree %d, %v %d", kind, rt.BusWords, kind, rc.BusWords)
				}
				for key, am := range rt.BlockCountsByPE {
					if !maps.Equal(am, rc.BlockCountsByPE[key]) {
						t.Fatalf("%v: BlockCountsByPE[%s] diverges", kind, key)
					}
				}
			}
		})
	}
}
