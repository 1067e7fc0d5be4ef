package rtl

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"

	"ese/internal/diag"
	"ese/internal/iss"
	"ese/internal/pum"
)

// issPinCfgs are the configurations of the ISS pins: the standard ones and
// both mixed geometries.
var issPinCfgs = append(slices.Clone(pum.StandardCacheConfigs),
	pum.CacheCfg{ISize: 0, DSize: 4096}, pum.CacheCfg{ISize: 4096, DSize: 0})

// issPin is the ISS cycles of one pinned SW workload at one configuration.
type issPin struct {
	App    string `json:"app"`
	Design string `json:"design"`
	ISize  int    `json:"isize"`
	DSize  int    `json:"dsize"`
	Cycles uint64 `json:"cycles"`
}

const issPinsPath = "testdata/iss_pins.json"

// TestISSCyclesMatchPins runs the MP3 and JPEG SW designs of the pinned
// workload through ISSCycles, every pinned configuration in one call, and
// checks each configuration's cycles against the pins, which were
// recorded with one ISS run per configuration. With -update-pins it
// rewrites the pins instead.
func TestISSCyclesMatchPins(t *testing.T) {
	want := make(map[string]uint64)
	if !*updatePins {
		data, err := os.ReadFile(issPinsPath)
		if err != nil {
			t.Fatal(err)
		}
		var pins []issPin
		if err := json.Unmarshal(data, &pins); err != nil {
			t.Fatal(err)
		}
		for _, p := range pins {
			want[pinKey(p.App, p.Design, pum.CacheCfg{ISize: p.ISize, DSize: p.DSize})] = p.Cycles
		}
	}
	var fresh []issPin
	for _, app := range []string{"mp3", "jpeg"} {
		d := pinDesign(t, app, "SW", issPinCfgs[0])
		isa, err := iss.Generate(d.Program)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := ISSCycles(context.Background(), isa, d.PEs[0].Entry, issPinCfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cc := range issPinCfgs {
			fresh = append(fresh, issPin{App: app, Design: "SW", ISize: cc.ISize, DSize: cc.DSize, Cycles: cycles[i]})
			key := pinKey(app, "SW", cc)
			if w, ok := want[key]; !*updatePins && (!ok || w != cycles[i]) {
				t.Errorf("%s: ISS cycles %d, pinned %d (pinned: %v)", key, cycles[i], w, ok)
			}
		}
	}
	if *updatePins {
		data, err := json.MarshalIndent(fresh, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(issPinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestISSTimingCachedVsUncached(t *testing.T) {
	_, isa := generate(t, `
int a[256];
void main() {
  int i;
  int s = 0;
  int r;
  for (r = 0; r < 4; r++) {
    for (i = 0; i < 256; i++) { a[i] = i; s += a[i]; }
  }
  out(s);
}`)
	cycles, err := ISSCycles(context.Background(), isa, "main", []pum.CacheCfg{{}, {ISize: 8192, DSize: 8192}})
	if err != nil {
		t.Fatal(err)
	}
	uncached, cached := cycles[0], cycles[1]
	if cached >= uncached {
		t.Fatalf("cached (%d) not faster than uncached (%d)", cached, uncached)
	}
	// Uncached pays the uncached latency on every fetch: at least
	// steps * (1 + uncached latency).
	m := iss.NewMachine(isa)
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if floor := m.Steps * (1 + issTiming.uncachedLat); uncached < floor {
		t.Fatalf("uncached cycles %d below floor %d", uncached, floor)
	}
}

func TestISSDeterministic(t *testing.T) {
	_, isa := generate(t, `
int a[64];
void main() {
  int i;
  for (i = 0; i < 64; i++) a[i] = (i * 37) % 19;
  int s = 0;
  for (i = 0; i < 64; i++) s += a[i];
  out(s);
}`)
	cfgs := []pum.CacheCfg{{ISize: 2048, DSize: 2048}}
	var first uint64
	for round := 0; round < 3; round++ {
		cycles, err := ISSCycles(context.Background(), isa, "main", cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = cycles[0]
		} else if cycles[0] != first {
			t.Fatalf("nondeterministic ISS cycles: %d vs %d", cycles[0], first)
		}
	}
}

// An ISS run polls its context: a program that never finishes stops with
// the typed deadline error once the deadline has passed.
func TestISSRunHonorsDeadline(t *testing.T) {
	_, isa := generate(t, `
void main() {
  int i;
  i = 0;
  while (i >= 0) { i = (i + 1) % 1000; }
  out(i);
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if _, err := ISSCycles(ctx, isa, "main", []pum.CacheCfg{{ISize: 2048, DSize: 2048}}); !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("ISS run past its deadline: %v, want %v", err, diag.ErrDeadline)
	}
	ps, err := runISSLanes(t, ctx, isa, issTiming)
	if !errors.Is(err, diag.ErrDeadline) {
		t.Fatalf("ISS lane past its deadline: %v, want %v", err, diag.ErrDeadline)
	}
	if ps.m.Steps > 2*ctxCheckSteps {
		t.Fatalf("ran %d steps past an expired deadline", ps.m.Steps)
	}
}

// runISSLanes runs main of isa under ctx as one pass with one uncached ISS
// lane per timing.
func runISSLanes(t *testing.T, ctx context.Context, isa *iss.Program, tms ...timing) (*pass, error) {
	t.Helper()
	m := iss.NewMachine(isa)
	ps, err := newPass(ctx, m, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range tms {
		ps.addLane(tm, issCache(0), issCache(0))
	}
	if err := m.Start("main"); err != nil {
		t.Fatal(err)
	}
	return ps, ps.run()
}

// TestISSMonotoneInLatency: a higher uncached latency never makes the ISS
// faster. The two latencies are two lanes of one pass, so both time the
// same instruction stream.
func TestISSMonotoneInLatency(t *testing.T) {
	srcs := map[string]string{
		"loop": loopSrc,
		"calls": `
int f(int a, int b) { return a * b / (b + 1); }
void main() { int i; int x = 1; for (i = 0; i < 50; i++) x = f(x, i) + 3; out(x); }`,
	}
	for name, src := range srcs {
		_, isa := generate(t, src)
		lo, hi := issTiming, issTiming
		lo.uncachedLat, hi.uncachedLat = 2, 8
		ps, err := runISSLanes(t, context.Background(), isa, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if c2, c8 := ps.take(0), ps.take(1); c2 > c8 {
			t.Fatalf("%s: ISS cycles not monotone in memory latency: %d at latency 2, %d at 8", name, c2, c8)
		}
	}
}
