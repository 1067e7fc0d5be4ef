package rtl

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"ese/internal/apps"
	"ese/internal/diag"
	"ese/internal/platform"
	"ese/internal/pum"
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
