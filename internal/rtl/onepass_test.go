package rtl

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"ese/internal/apps"
	"ese/internal/cache"
	"ese/internal/diag"
	"ese/internal/interp"
	"ese/internal/iss"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/sim"
	"ese/internal/tlm"
)

// TestBoardsOnePassMatchesPins runs each pinned workload's configurations
// in one functional pass, in the standard order and reversed, and checks
// every configuration's result against the pins recorded with one board
// run per configuration.
func TestBoardsOnePassMatchesPins(t *testing.T) {
	pins := loadPins(t)
	reversed := slices.Clone(pum.StandardCacheConfigs)
	slices.Reverse(reversed)
	for _, w := range pinWorkloads() {
		for _, cfgs := range [][]pum.CacheCfg{pum.StandardCacheConfigs, reversed} {
			ds := pinDesigns(t, w.app, w.design, cfgs)
			brs, err := RunBoards(context.Background(), ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, cc := range cfgs {
				checkPin(t, pins, pinOf(w.app, w.design, cc, ds[i], brs[i]))
			}
		}
	}
}

// pinDesigns maps one compiled program of a pinned workload at every
// configuration of cfgs, as calib.ScoreRow does.
func pinDesigns(t *testing.T, app, design string, cfgs []pum.CacheCfg) []*platform.Design {
	t.Helper()
	first := pinDesign(t, app, design, cfgs[0])
	ds := []*platform.Design{first}
	for _, cc := range cfgs[1:] {
		mapDesign := apps.MapMP3
		if app == "jpeg" {
			mapDesign = apps.MapJPEG
		}
		d, err := mapDesign(design, first.Program, pum.MicroBlaze(), cc)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	return ds
}

// TestBoardsStepLimitFailsLikeOneConfig: a step limit that a design
// exceeds fails a multi-configuration pass with exactly the error of a
// one-configuration run.
func TestBoardsStepLimitFailsLikeOneConfig(t *testing.T) {
	const limit = 50_000
	for _, design := range []string{"SW", "SW+4"} {
		ds := pinDesigns(t, "mp3", design, pum.StandardCacheConfigs)
		_, one := RunBoard(ds[2], limit)
		_, multi := RunBoards(context.Background(), ds, limit)
		if one == nil || multi == nil {
			t.Fatalf("%s: step limit %d not enforced: one config %v, pass %v", design, limit, one, multi)
		}
		if one.Error() != multi.Error() {
			t.Fatalf("%s: one config failed with %q, the pass with %q", design, one, multi)
		}
	}
}

// TestBoardsHonorDeadline: a pass whose single processor never yields to
// the kernel (MP3 SW has no channel operations) still stops at its
// context's deadline, with the typed error, because the instruction loop
// polls the context.
func TestBoardsHonorDeadline(t *testing.T) {
	d, err := apps.MP3Design("SW", apps.MP3Config{Frames: 40, Seed: apps.DefaultMP3.Seed}, pum.MicroBlaze(), pum.StandardCacheConfigs[2])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := RunBoards(ctx, []*platform.Design{d}, 0); !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("err = %v, want diag.ErrDeadline", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("pass returned after %v, past its 50ms deadline", el)
	}
}

// TestBoardsRejectDifferentMappings: designs of different programs or PE
// lists cannot share a functional pass.
func TestBoardsRejectDifferentMappings(t *testing.T) {
	cc := pum.StandardCacheConfigs[2]
	sw := pinDesign(t, "mp3", "SW", cc)
	other := pinDesign(t, "mp3", "SW", cc) // same source, another program
	hw, err := apps.MapMP3("SW+1", sw.Program, pum.MicroBlaze(), cc)
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string][]*platform.Design{
		"programs": {sw, other},
		"PEs":      {sw, hw},
	} {
		if _, err := RunBoards(context.Background(), ds, 0); err == nil {
			t.Fatalf("designs with different %s shared a pass", name)
		}
	}
}

// TestLanesMatchRefCPU runs one pass over MP3 SW and JPEG SW+DCT with
// lanes of every kind: uncached, one side absent, shared geometries (the
// 16k I-cache twice, the 16k D-cache three times) and a repeated lane.
// Every take of the processor (one per segment between channel
// operations) and every lane's statistics must equal those of a
// reference CPU of that lane's caches alone, charged per instruction.
func TestLanesMatchRefCPU(t *testing.T) {
	lanes := []pum.CacheCfg{
		{ISize: 0, DSize: 0}, {ISize: 0, DSize: 4096}, {ISize: 4096, DSize: 0},
		{ISize: 16384, DSize: 16384}, {ISize: 32768, DSize: 16384}, {ISize: 16384, DSize: 16384},
	}
	for _, w := range []struct{ app, design string }{{"mp3", "SW"}, {"jpeg", "SW+DCT"}} {
		d := pinDesign(t, w.app, w.design, pum.StandardCacheConfigs[0])
		ds := make([]*platform.Design, len(lanes))
		for i, cc := range lanes {
			ds[i] = withCaches(d, cache.BoardConfig(cc.ISize), cache.BoardConfig(cc.DSize))
		}
		runs, err := functionalPass(context.Background(), ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for pe, r := range runs {
			if r.cpu == nil {
				continue
			}
			for i, cc := range lanes {
				ref := runRefDesign(t, ds[i])
				if w.design != "SW" && len(ref.segs) < 2 {
					t.Fatalf("%s/%s: the processor has %d segments, want channel operations", w.app, w.design, len(ref.segs))
				}
				if !slices.Equal(r.cycles[i], ref.segs) {
					t.Errorf("%s/%s lane %d %v: takes %v, reference %v", w.app, w.design, i, cc, r.cycles[i], ref.segs)
				}
				if got, want := r.cpu.mem(i), ref.mem(); got != want {
					t.Errorf("%s/%s lane %d %v: statistics %+v, reference %+v", w.app, w.design, i, cc, got, want)
				}
				if r.cpu.bp.MissRate() != ref.bp.MissRate() || r.steps != ref.m.Steps {
					t.Errorf("%s/%s PE %d: miss rate %v over %d steps, reference %v over %d",
						w.app, w.design, pe, r.cpu.bp.MissRate(), r.steps, ref.bp.MissRate(), ref.m.Steps)
				}
			}
		}
	}
}

// withCaches returns a copy of d whose processor PEs have the given cache
// organizations.
func withCaches(d *platform.Design, ic, dc cache.Config) *platform.Design {
	c := *d
	c.PEs = make([]*platform.PE, len(d.PEs))
	for i, pe := range d.PEs {
		cp := *pe
		if cp.Kind == platform.Processor {
			cp.ICache, cp.DCache = ic, dc
		}
		c.PEs[i] = &cp
	}
	return &c
}

// runRefDesign runs d on an untimed bus with its one processor PE on a
// reference CPU of the PE's caches, cutting a segment at each channel
// operation and at the end, and its hardware PEs on the IR interpreter.
func runRefDesign(t *testing.T, d *platform.Design) *refCPU {
	t.Helper()
	isa, err := iss.Generate(d.Program)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	bus := tlm.NewBus(k, d.Bus, false)
	var cpu *refCPU
	errs := make([]error, len(d.PEs))
	for i, pe := range d.PEs {
		channels := func(p *sim.Process, cut func()) (send, recv func(int, []int32) error) {
			send = func(ch int, data []int32) error { cut(); bus.Send(p, ch, data); return nil }
			recv = func(ch int, buf []int32) error { cut(); bus.Recv(p, ch, buf); return nil }
			return send, recv
		}
		switch pe.Kind {
		case platform.Processor:
			cpu = newRefCPU(t, isa, pe.PUM, pe.ICache, pe.DCache)
			k.Spawn(pe.Name, func(p *sim.Process) {
				cpu.m.Send, cpu.m.Recv = channels(p, cpu.cut)
				errs[i] = cpu.run(pe.Entry)
				cpu.cut()
			})
		case platform.HWUnit:
			m := interp.New(d.Program)
			k.Spawn(pe.Name, func(p *sim.Process) {
				m.Send, m.Recv = channels(p, func() {})
				errs[i] = m.Run(pe.Entry)
			})
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return cpu
}
