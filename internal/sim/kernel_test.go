package sim

import (
	"errors"
	"testing"
)

func TestWaitAdvancesTime(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Spawn("p", func(p *Process) {
		p.Wait(10)
		at = append(at, p.Now())
		p.Wait(5)
		at = append(at, p.Now())
	})
	end, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 15 {
		t.Fatalf("end time = %d, want 15", end)
	}
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Fatalf("observed times = %v, want [10 15]", at)
	}
}

func TestZeroWaitIsDeltaCycle(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Process) {
		order = append(order, "a1")
		p.Wait(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Process) {
		order = append(order, "b1")
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a1", "b1", "a2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnOrderIsDispatchOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		k.Spawn(name, func(p *Process) {
			order = append(order, name)
		})
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[0] != "p0" || order[1] != "p1" || order[2] != "p2" {
		t.Fatalf("dispatch order = %v", order)
	}
}

func TestEventNotifyWakesWaiter(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("ev")
	var wokeAt Time
	k.Spawn("waiter", func(p *Process) {
		p.WaitEvent(ev)
		wokeAt = p.Now()
	})
	k.Spawn("notifier", func(p *Process) {
		p.Wait(42)
		ev.Notify(8)
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 50 {
		t.Fatalf("woke at %d, want 50", wokeAt)
	}
}

func TestEventWakesAllWaitersInOrder(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("ev")
	var order []string
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		k.Spawn(name, func(p *Process) {
			p.WaitEvent(ev)
			order = append(order, name)
		})
	}
	k.Spawn("n", func(p *Process) {
		p.Wait(1)
		ev.Notify(0)
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != "w0" || order[1] != "w1" || order[2] != "w2" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("never")
	k.Spawn("stuck", func(p *Process) {
		p.WaitEvent(ev)
	})
	_, err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStopHaltsSimulation(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("loop", func(p *Process) {
		for {
			p.Wait(10)
			n++
			if n == 3 {
				k.Stop()
				return
			}
		}
	})
	end, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 30 || n != 3 {
		t.Fatalf("end=%d n=%d, want 30/3", end, n)
	}
}

func TestRendezvousPingPong(t *testing.T) {
	// Two processes alternating via a pair of events, the skeleton of the
	// bus-channel handshake.
	k := NewKernel()
	ping := k.NewEvent("ping")
	pong := k.NewEvent("pong")
	var trace []Time
	const rounds = 4
	k.Spawn("a", func(p *Process) {
		for i := 0; i < rounds; i++ {
			p.Wait(3)
			ping.Notify(0)
			p.WaitEvent(pong)
		}
	})
	k.Spawn("b", func(p *Process) {
		for i := 0; i < rounds; i++ {
			p.WaitEvent(ping)
			p.Wait(2)
			trace = append(trace, p.Now())
			pong.Notify(0)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{5, 10, 15, 20}
	if len(trace) != rounds {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		ev := k.NewEvent("ev")
		var order []string
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			d := Time(i%3) * 7
			k.Spawn(name, func(p *Process) {
				p.Wait(d)
				order = append(order, name)
				if name == "d" {
					ev.Notify(20)
				} else if name == "e" {
					p.WaitEvent(ev)
					order = append(order, name+"'")
				}
			})
		}
		if _, err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("replay diverged: %v vs %v", first, again)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("replay diverged at %d: %v vs %v", j, first, again)
			}
		}
	}
}
