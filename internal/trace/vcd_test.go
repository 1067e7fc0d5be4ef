package trace

import (
	"strconv"
	"strings"
	"testing"

	"ese/internal/sim"
)

// wireIDs returns the id code of every $var wire in a rendered VCD.
func wireIDs(out string) []string {
	var ids []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[0] == "$var" {
			ids = append(ids, f[3])
		}
	}
	return ids
}

func TestRenderStructure(t *testing.T) {
	e := NewEvents()
	a := e.Track("cpu")
	b := e.Track("bus main") // space must be sanitized
	e.Slice(a, "compute", 100, 200)
	e.Slice(b, "ch0", 150, 250)
	out := e.RenderVCD()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$var wire 1 ! cpu_busy $end",
		"$var wire 1 \" bus_main_busy $end",
		"$enddefinitions $end",
		"$dumpvars",
		"#100",
		"#150",
		"#200",
		"#250",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

func TestRenderChronological(t *testing.T) {
	e := NewEvents()
	a := e.Track("a")
	// Recorded out of order.
	e.Slice(a, "late", 300, 400)
	e.Slice(a, "early", 100, 200)
	out := e.RenderVCD()
	i1 := strings.Index(out, "#100")
	i3 := strings.Index(out, "#300")
	if i1 < 0 || i3 < 0 || i1 > i3 {
		t.Fatalf("timestamps out of order:\n%s", out)
	}
	// Times must be non-decreasing overall.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			n, err := strconv.Atoi(line[1:])
			if err != nil {
				t.Fatalf("bad timestamp %q", line)
			}
			if n < last {
				t.Fatalf("timestamp %d after %d", n, last)
			}
			last = n
		}
	}
}

func TestRenderDedupsRepeatedValues(t *testing.T) {
	e := NewEvents()
	a := e.Track("a")
	e.Slice(a, "outer", 10, 30)
	e.Slice(a, "inner", 20, 30) // rises while high: no change emitted
	out := e.RenderVCD()
	if strings.Contains(out, "#20") {
		t.Fatalf("repeated value emitted a change:\n%s", out)
	}
	if strings.Count(out, "1!") != 1 {
		t.Fatalf("expected exactly one rising change:\n%s", out)
	}
}

func TestManySignalsGetDistinctIDs(t *testing.T) {
	e := NewEvents()
	for i := 0; i < 100; i++ {
		e.Track("s" + strconv.Itoa(i))
	}
	seen := make(map[string]bool)
	for _, id := range wireIDs(e.RenderVCD()) {
		if seen[id] {
			t.Fatalf("duplicate VCD id %q", id)
		}
		seen[id] = true
	}
	if len(seen) != 100 {
		t.Fatalf("got %d wires, want 100", len(seen))
	}
}

func TestZeroTimeChange(t *testing.T) {
	e := NewEvents()
	a := e.Track("a")
	e.Slice(a, "compute", 0, sim.Time(50))
	out := e.RenderVCD()
	if !strings.Contains(out, "#0\n1!") {
		t.Fatalf("missing initial change at time 0:\n%s", out)
	}
}
