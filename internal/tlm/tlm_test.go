package tlm

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/core"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/sim"
	"ese/internal/trace"
)

func compile(t *testing.T, src string) *cdfg.Program {
	t.Helper()
	f, err := cfront.Parse("t.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	u, err := cfront.Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := cdfg.Lower(u)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return p
}

// fullDelays is the per-PE full-detail delay tables a pipeline would hand
// Run, estimated uncached.
func fullDelays(t *testing.T, d *platform.Design) map[string][]float64 {
	t.Helper()
	out := make(map[string][]float64, len(d.PEs))
	for _, pe := range d.PEs {
		tab, err := core.EstimateBlocksCtx(context.Background(), d.Program, pe.PUM, core.FullDetail, core.EstOptions{})
		if err != nil {
			t.Fatalf("EstimateBlocksCtx %s: %v", pe.Name, err)
		}
		out[pe.Name] = tab.Totals()
	}
	return out
}

// twoPEDesign builds a producer (processor) and consumer (HW) design.
func twoPEDesign(t *testing.T, src string) *platform.Design {
	t.Helper()
	prog := compile(t, src)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &platform.Design{
		Name:    "test",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb},
			{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: pum.CustomHW("acc", 100_000_000)},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

const pingPongSrc = `
int buf[8];
int res[8];
void main() {
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    for (i = 0; i < 8; i++) buf[i] = r * 10 + i;
    send(0, buf, 8);
    recv(1, res, 8);
    out(res[0]);
    out(res[7]);
  }
}
void worker() {
  int w[8];
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    recv(0, w, 8);
    for (i = 0; i < 8; i++) w[i] = w[i] * 2;
    send(1, w, 8);
  }
}
`

func TestFunctionalTLMTwoPE(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int32{0, 14, 20, 34, 40, 54}
	got := res.OutByPE["cpu"]
	if len(got) != len(want) {
		t.Fatalf("out = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out = %v, want %v", got, want)
		}
	}
	if res.EndPs != 0 {
		t.Fatalf("functional TLM advanced time to %d", res.EndPs)
	}
}

func TestTimedTLMAdvancesTime(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	res, err := Run(d, Options{Timed: true, Delays: fullDelays(t, d)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.EndPs == 0 {
		t.Fatal("timed TLM did not advance simulated time")
	}
	if res.CyclesByPE["cpu"] == 0 || res.CyclesByPE["acc"] == 0 {
		t.Fatalf("cycles not accumulated: %v", res.CyclesByPE)
	}
	// The end time must cover at least the cpu's accumulated compute time.
	cpuPs := res.CyclesByPE["cpu"] * 10_000 // 100 MHz -> 10 ns = 10000 ps
	if uint64(res.EndPs) < cpuPs {
		t.Fatalf("end %d ps < cpu compute %d ps", res.EndPs, cpuPs)
	}
	if res.BusWords != uint64(3*8*2) {
		t.Fatalf("bus words = %d, want 48", res.BusWords)
	}
}

func TestTimedMatchesFunctionalOutput(t *testing.T) {
	d1 := twoPEDesign(t, pingPongSrc)
	d2 := twoPEDesign(t, pingPongSrc)
	f, err := Run(d1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Run(d2, Options{Timed: true, Delays: fullDelays(t, d2)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.OutByPE["cpu"], tm.OutByPE["cpu"]
	if len(a) != len(b) {
		t.Fatalf("outputs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, a, b)
		}
	}
}

func TestDeadlockSurfaces(t *testing.T) {
	d := twoPEDesign(t, `
void main() {
  int b[2];
  recv(0, b, 2); // nobody sends on 0 to cpu... worker also recvs
  out(b[0]);
}
void worker() {
  int b[2];
  recv(1, b, 2);
}
`)
	// Channel validation rejects this (recv-only channels); bypass it by
	// running with Run directly to observe kernel deadlock.
	_, err := Run(d, Options{Timed: false})
	if err == nil {
		t.Fatal("expected error for deadlocking design")
	}
}

func TestChannelCountMismatchTruncates(t *testing.T) {
	d := twoPEDesign(t, `
int buf[8];
void main() {
  int r[4];
  send(0, buf, 8);
  recv(1, r, 4);
  out(r[0]);
}
void worker() {
  int w[4];
  recv(0, w, 4);     // receiver asks for fewer words
  w[0] = 99;
  send(1, w, 4);
}
`)
	res, err := Run(d, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.OutByPE["cpu"][0] != 99 {
		t.Fatalf("out = %v", res.OutByPE["cpu"])
	}
}

func TestBusArbitrationSerializesTransfers(t *testing.T) {
	// Two independent channels transferring at the same instant: the
	// second transfer must wait for the first (non-preemptive bus).
	k := sim.NewKernel()
	bus := NewBus(k, platform.Bus{ClockHz: 100_000_000, ArbCycles: 2, WordCycles: 1}, true)
	var done1, done2 sim.Time
	data := make([]int32, 8)
	buf := make([]int32, 8)
	k.Spawn("s1", func(p *sim.Process) { bus.Send(p, 0, data); done1 = p.Now() })
	k.Spawn("r1", func(p *sim.Process) { bus.Recv(p, 0, buf) })
	k.Spawn("s2", func(p *sim.Process) { bus.Send(p, 1, data); done2 = p.Now() })
	k.Spawn("r2", func(p *sim.Process) { bus.Recv(p, 1, buf) })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each transfer: (2 + 8) * 10ns = 100ns = 100_000 ps.
	if done1 != 100_000 {
		t.Fatalf("first transfer finished at %d, want 100000", done1)
	}
	if done2 != 200_000 {
		t.Fatalf("second transfer finished at %d, want 200000 (serialized)", done2)
	}
	if bus.Transfers != 2 || bus.Words != 16 {
		t.Fatalf("bus stats: %d transfers, %d words", bus.Transfers, bus.Words)
	}
}

func TestUntimedBusIsInstant(t *testing.T) {
	k := sim.NewKernel()
	bus := NewBus(k, platform.DefaultBus(), false)
	var done sim.Time
	data := []int32{1, 2, 3}
	buf := make([]int32, 3)
	k.Spawn("s", func(p *sim.Process) { bus.Send(p, 0, data) })
	k.Spawn("r", func(p *sim.Process) { bus.Recv(p, 0, buf); done = p.Now() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Fatalf("untimed transfer took %d ps", done)
	}
	if buf[2] != 3 {
		t.Fatalf("data not delivered: %v", buf)
	}
}

func TestRendezvousEitherOrderDelivers(t *testing.T) {
	for _, senderFirst := range []bool{true, false} {
		k := sim.NewKernel()
		bus := NewBus(k, platform.DefaultBus(), true)
		data := []int32{7, 8}
		buf := make([]int32, 2)
		sDelay, rDelay := sim.Time(0), sim.Time(5000)
		if !senderFirst {
			sDelay, rDelay = 5000, 0
		}
		k.Spawn("s", func(p *sim.Process) {
			p.Wait(sDelay)
			bus.Send(p, 3, data)
		})
		k.Spawn("r", func(p *sim.Process) {
			p.Wait(rDelay)
			bus.Recv(p, 3, buf)
		})
		if _, err := k.Run(); err != nil {
			t.Fatalf("senderFirst=%v: %v", senderFirst, err)
		}
		if buf[0] != 7 || buf[1] != 8 {
			t.Fatalf("senderFirst=%v: buf=%v", senderFirst, buf)
		}
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	prog := compile(t, `void main() { out(1); }`)
	d := &platform.Design{Name: "bad", Program: prog, Bus: platform.DefaultBus()}
	_, err := Run(d, Options{})
	if err == nil || !strings.Contains(err.Error(), "no PEs") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunRejectsMismatchedDelays: a timed run needs precomputed delays
// that name every PE and hold one delay per block of the design's
// program; Run never annotates by itself.
func TestRunRejectsMismatchedDelays(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	n := d.Program.NumBlocks()
	for name, tc := range map[string]struct {
		delays map[string][]float64
		want   string
	}{
		"no tables":   {nil, `no precomputed delays for PE "cpu"`},
		"missing PE":  {map[string][]float64{"cpu": make([]float64, n)}, `no precomputed delays for PE "acc"`},
		"short table": {map[string][]float64{"cpu": make([]float64, n), "acc": make([]float64, n-1)}, `PE "acc" has`},
	} {
		_, err := Run(d, Options{Timed: true, Delays: tc.delays})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

func TestStepLimitPropagates(t *testing.T) {
	prog := compile(t, `void main() { while (1) {} }`)
	mb, _ := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 2048, DSize: 2048})
	d := &platform.Design{
		Name:    "loop",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs:     []*platform.PE{{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb}},
	}
	_, err := Run(d, Options{StepLimit: 10_000})
	if err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestTimedRunProducesVCDTrace(t *testing.T) {
	d := twoPEDesign(t, pingPongSrc)
	v := trace.New()
	res, err := Run(d, Options{
		Timed:    true,
		WaitMode: WaitAtTransactions,
		Delays:   fullDelays(t, d),
		Trace:    v,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := v.Render()
	for _, want := range []string{"bus_busy", "cpu_busy", "acc_busy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing signal %q:\n%s", want, out)
		}
	}
	// The last timestamp must not exceed the simulation end time.
	lastTime := uint64(0)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			var n uint64
			fmt.Sscanf(line, "#%d", &n)
			lastTime = n
		}
	}
	if lastTime > uint64(res.EndPs) {
		t.Fatalf("VCD time %d beyond end %d", lastTime, res.EndPs)
	}
	if v.Changes() < 6 {
		t.Fatalf("suspiciously few changes: %d", v.Changes())
	}
}

func TestMixedClockDomains(t *testing.T) {
	// The HW accelerator at 50 MHz (20 ns cycles) vs 200 MHz: the slower
	// clock must stretch the simulated end time even though cycle counts
	// per PE stay identical.
	run := func(hwClock int64) (sim.Time, uint64) {
		prog := compile(t, pingPongSrc)
		mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		d := &platform.Design{
			Name:    "clocks",
			Program: prog,
			Bus:     platform.DefaultBus(),
			PEs: []*platform.PE{
				{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: mb},
				{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: pum.CustomHW("acc", hwClock)},
			},
		}
		res, err := Run(d, Options{Timed: true, Delays: fullDelays(t, d)})
		if err != nil {
			t.Fatal(err)
		}
		return res.EndPs, res.CyclesByPE["acc"]
	}
	slowEnd, slowCycles := run(50_000_000)
	fastEnd, fastCycles := run(200_000_000)
	if slowCycles != fastCycles {
		t.Fatalf("HW cycle count changed with clock: %d vs %d", slowCycles, fastCycles)
	}
	if slowEnd <= fastEnd {
		t.Fatalf("slower HW clock did not stretch time: %d vs %d", slowEnd, fastEnd)
	}
}

func TestBusWordCyclesScaleTransferTime(t *testing.T) {
	mk := func(wordCycles int) sim.Time {
		k := sim.NewKernel()
		bus := NewBus(k, platform.Bus{ClockHz: 100_000_000, ArbCycles: 2, WordCycles: wordCycles}, true)
		data := make([]int32, 10)
		buf := make([]int32, 10)
		var done sim.Time
		k.Spawn("s", func(p *sim.Process) { bus.Send(p, 0, data) })
		k.Spawn("r", func(p *sim.Process) { bus.Recv(p, 0, buf); done = p.Now() })
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	one := mk(1)  // (2 + 10*1) * 10ns
	four := mk(4) // (2 + 10*4) * 10ns
	if one != 120_000 || four != 420_000 {
		t.Fatalf("transfer times: %d and %d, want 120000 and 420000", one, four)
	}
}
