package tlm

import (
	"testing"

	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtos"
)

// rtosAppSrc is a two-process application: a producer generates blocks of
// work and a consumer filters them, exchanging data over channels.
const rtosAppSrc = `
int NITEMS = 6;

void producer() {
  int buf[16];
  int n;
  for (n = 0; n < NITEMS; n++) {
    int i;
    for (i = 0; i < 16; i++) {
      buf[i] = (n * 16 + i) * 3 % 101;
    }
    send(0, buf, 16);
  }
}

void consumer() {
  int buf[16];
  int n;
  int acc = 0;
  for (n = 0; n < NITEMS; n++) {
    int i;
    recv(0, buf, 16);
    for (i = 0; i < 16; i++) {
      acc += buf[i] * buf[i] % 17;
    }
    out(acc);
  }
}
`

// rtosDesign maps both processes onto one processor under the RTOS model.
func rtosDesign(t *testing.T, cfg rtos.Config) *platform.Design {
	t.Helper()
	prog := compile(t, rtosAppSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &platform.Design{
		Name:    "rtos-single-cpu",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{{
			Name: "cpu",
			Kind: platform.Processor,
			PUM:  mb,
			Tasks: []platform.SWTask{
				{Name: "prod", Entry: "producer", Priority: 1},
				{Name: "cons", Entry: "consumer", Priority: 2},
			},
			RTOS: cfg,
		}},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := d.ValidateChannels(); err != nil {
		t.Fatalf("ValidateChannels: %v", err)
	}
	return d
}

// twoPEReference maps the same processes onto two separate processors.
func twoPEReference(t *testing.T) *platform.Design {
	t.Helper()
	prog := compile(t, rtosAppSrc)
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return &platform.Design{
		Name:    "two-cpu",
		Program: prog,
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "p0", Kind: platform.Processor, Entry: "producer", PUM: mb},
			{Name: "p1", Kind: platform.Processor, Entry: "consumer", PUM: mb},
		},
	}
}

func TestRTOSFunctionalMatchesTwoPE(t *testing.T) {
	ref, err := Run(twoPEReference(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(rtosDesign(t, rtos.Config{Policy: rtos.Cooperative}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.OutByPE["p1"]
	outs := got.OutByPE["cpu/cons"]
	if len(outs) != len(want) {
		t.Fatalf("out = %v, want %v", outs, want)
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("out = %v, want %v", outs, want)
		}
	}
}

func TestRTOSTimedSharedCPUSlowerThanTwoPEs(t *testing.T) {
	twoD := twoPEReference(t)
	two, err := Run(twoD, Options{Timed: true, Delays: fullDelays(t, twoD)})
	if err != nil {
		t.Fatal(err)
	}
	oneD := rtosDesign(t, rtos.Config{Policy: rtos.Cooperative})
	one, err := Run(oneD, Options{Timed: true, Delays: fullDelays(t, oneD)})
	if err != nil {
		t.Fatal(err)
	}
	if one.EndPs <= two.EndPs {
		t.Fatalf("single shared CPU (%d ps) not slower than two CPUs (%d ps)",
			one.EndPs, two.EndPs)
	}
	// The shared CPU serializes everything: end time >= total busy cycles.
	busy := one.CyclesByPE["cpu"]
	if one.EndCycles(100_000_000) < busy {
		t.Fatalf("end %d cycles < busy %d cycles", one.EndCycles(100_000_000), busy)
	}
	// Per-task accounting adds up to the PE total.
	if one.CyclesByPE["cpu/prod"]+one.CyclesByPE["cpu/cons"] != busy {
		t.Fatalf("task cycles %d + %d != PE total %d",
			one.CyclesByPE["cpu/prod"], one.CyclesByPE["cpu/cons"], busy)
	}
}

func TestRTOSContextSwitchCostVisible(t *testing.T) {
	freeD := rtosDesign(t, rtos.Config{Policy: rtos.Cooperative})
	free, err := Run(freeD, Options{Timed: true, Delays: fullDelays(t, freeD)})
	if err != nil {
		t.Fatal(err)
	}
	costlyD := rtosDesign(t, rtos.Config{
		Policy:              rtos.Cooperative,
		ContextSwitchCycles: 500,
	})
	costly, err := Run(costlyD, Options{Timed: true, Delays: fullDelays(t, costlyD)})
	if err != nil {
		t.Fatal(err)
	}
	if costly.EndPs <= free.EndPs {
		t.Fatalf("context switches added no time: %d vs %d", costly.EndPs, free.EndPs)
	}
	if costly.SwitchesByPE["cpu"] == 0 {
		t.Fatal("no switches counted")
	}
	// End-time growth matches switches * cost (each switch is 500 cycles
	// = 5_000_000 ps at 100 MHz) within one switch of slack for the final
	// idle tail.
	growth := uint64(costly.EndPs - free.EndPs)
	wantMin := (costly.SwitchesByPE["cpu"] - 1) * 500 * 10_000
	if growth < wantMin {
		t.Fatalf("growth %d ps below switch cost floor %d ps (switches=%d)",
			growth, wantMin, costly.SwitchesByPE["cpu"])
	}
}

func TestRTOSPoliciesAllFunctionallyEquivalent(t *testing.T) {
	var ref []int32
	for _, cfg := range []rtos.Config{
		{Policy: rtos.Cooperative},
		{Policy: rtos.RoundRobin, TimeSliceCycles: 1000, ContextSwitchCycles: 20},
		{Policy: rtos.PriorityPreemptive, ContextSwitchCycles: 10},
	} {
		d := rtosDesign(t, cfg)
		res, err := Run(d, Options{Timed: true, Delays: fullDelays(t, d)})
		if err != nil {
			t.Fatalf("%v: %v", cfg.Policy, err)
		}
		outs := res.OutByPE["cpu/cons"]
		if ref == nil {
			ref = outs
			continue
		}
		if len(outs) != len(ref) {
			t.Fatalf("%v: output diverges", cfg.Policy)
		}
		for i := range ref {
			if outs[i] != ref[i] {
				t.Fatalf("%v: output diverges at %d", cfg.Policy, i)
			}
		}
	}
}

func TestRTOSPerBlockModeRuns(t *testing.T) {
	d := rtosDesign(t, rtos.Config{Policy: rtos.RoundRobin, TimeSliceCycles: 200})
	res, err := Run(d, Options{Timed: true, WaitMode: WaitPerBlock, Delays: fullDelays(t, d)})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesByPE["cpu"] == 0 {
		t.Fatal("no cycles accumulated in per-block mode")
	}
}
