package trace

import (
	"fmt"
	"strings"
	"testing"

	"ese/internal/sim"
)

// TestVCDIDCollisionFree checks the identifier-code generator over several
// hundred signals: every VCD id must be unique (a collision would silently
// merge two signals' waveforms in the viewer) and made only of the
// printable ASCII characters the VCD grammar allows for id codes.
func TestVCDIDCollisionFree(t *testing.T) {
	const n = 700
	seen := make(map[string]int, n)
	for i := 0; i < n; i++ {
		id := vcdID(i)
		if id == "" {
			t.Fatalf("vcdID(%d) is empty", i)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("vcdID collision: %d and %d both map to %q", prev, i, id)
		}
		seen[id] = i
		for _, r := range id {
			if r < '!' || r > '~' {
				t.Fatalf("vcdID(%d) = %q contains non-printable %q", i, id, r)
			}
		}
	}
}

// TestVCDSignalIDsUnique exercises the same property through the public
// Track API, as RenderVCD uses it.
func TestVCDSignalIDsUnique(t *testing.T) {
	e := NewEvents()
	for i := 0; i < 300; i++ {
		e.Track(fmt.Sprintf("sig%d", i))
	}
	ids := make(map[string]bool)
	for i, id := range wireIDs(e.RenderVCD()) {
		if ids[id] {
			t.Fatalf("duplicate id %q at signal %d", id, i)
		}
		ids[id] = true
	}
}

// TestRenderSimultaneousChangesStableOrder checks that changes at the
// same timestamp render in recording order, whatever order the sort
// visits them in, and that rendering is reproducible.
func TestRenderSimultaneousChangesStableOrder(t *testing.T) {
	build := func() *Events {
		e := NewEvents()
		var tracks []int
		for i := 0; i < 8; i++ {
			tracks = append(tracks, e.Track(fmt.Sprintf("s%d", i)))
		}
		// All eight tracks rise at t=100 in a known order; a slice recorded
		// later ends on s3 at the same instant. Out-of-order recording
		// across time is also exercised.
		for _, tr := range tracks {
			e.Slice(tr, "x", 100, 200)
		}
		e.Slice(tracks[3], "x", 50, 100) // falls at the rises' instant, recorded later
		e.Slice(tracks[0], "x", 25, 30)
		return e
	}
	out1 := build().RenderVCD()
	out2 := build().RenderVCD()
	if out1 != out2 {
		t.Fatalf("RenderVCD is not reproducible:\n%s\nvs\n%s", out1, out2)
	}
	// Within the #100 section, s3's fall (recorded last) must come after
	// the rises of the other signals, i.e. recording order is preserved.
	sec := out1[strings.Index(out1, "#100"):]
	idxRise := strings.Index(sec, "1"+vcdID(7)) // last signal's rise
	idxFall := strings.Index(sec, "0"+vcdID(3)) // s3's later fall
	if idxRise < 0 || idxFall < 0 {
		t.Fatalf("expected changes missing from section:\n%s", sec)
	}
	if idxFall < idxRise {
		t.Fatalf("same-time changes rendered out of recording order:\n%s", sec)
	}
	// s3 rose at t=50, so at t=100 it falls: both transitions must render.
	if !strings.Contains(out1, "#50") {
		t.Fatalf("missing #50 timestamp:\n%s", out1)
	}
}

// TestRenderDeduplicatesRedundantChanges: a slice that starts while its
// track is already busy must not render a second rise.
func TestRenderDeduplicatesRedundantChanges(t *testing.T) {
	e := NewEvents()
	x := e.Track("x")
	e.Slice(x, "a", 10, 30)
	e.Slice(x, "b", 20, 30) // redundant
	out := e.RenderVCD()
	if strings.Contains(out, "#20") {
		t.Fatalf("redundant change rendered its own timestamp:\n%s", out)
	}
	if got := strings.Count(out, "1"+vcdID(0)); got != 1 {
		t.Fatalf("rise rendered %d times, want once:\n%s", got, out)
	}
}

// TestPulseRoundTripThroughSimTime: slices recorded via sim.Time survive
// the sort with correct interval nesting.
func TestPulseRoundTripThroughSimTime(t *testing.T) {
	e := NewEvents()
	a := e.Track("a")
	b := e.Track("b")
	e.Slice(b, "inner", sim.Time(200), sim.Time(300))
	e.Slice(a, "outer", sim.Time(100), sim.Time(400))
	out := e.RenderVCD()
	// Search past the $dumpvars preamble so its initial 0-values don't
	// shadow the real transitions.
	body := out[strings.Index(out, "#100"):]
	ida, idb := vcdID(a-1), vcdID(b-1)
	wantOrder := []string{"#100", "1" + ida, "#200", "1" + idb, "#300", "0" + idb, "#400", "0" + ida}
	pos := 0
	for _, tok := range wantOrder {
		i := strings.Index(body[pos:], tok)
		if i < 0 {
			t.Fatalf("token %q missing or out of order in:\n%s", tok, out)
		}
		pos += i + len(tok)
	}
}
