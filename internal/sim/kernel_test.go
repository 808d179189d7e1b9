package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{125 * Nanosecond, "125ns"},
		{HalfCycle, "62.5ns"},
		{Microsecond, "1µs"},
		{5 * Microsecond, "5µs"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{15 * Second, "15s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(Cycle)
	if t1.Sub(t0) != Cycle {
		t.Fatalf("Sub = %v, want %v", t1.Sub(t0), Cycle)
	}
	if Cycle != 2*HalfCycle {
		t.Fatalf("cycle %v != 2 half-cycles %v", Cycle, 2*HalfCycle)
	}
	if (125 * Nanosecond).Nanoseconds() != 125 {
		t.Fatalf("Nanoseconds wrong")
	}
	if Second.Seconds() != 1 {
		t.Fatalf("Seconds wrong")
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(20*Nanosecond, func() { order = append(order, 2) })
	k.After(10*Nanosecond, func() { order = append(order, 1) })
	k.After(20*Nanosecond, func() { order = append(order, 3) }) // same time: FIFO
	k.After(30*Nanosecond, func() { order = append(order, 4) })
	end := k.Run(0)
	if end != Time(30*Nanosecond) {
		t.Fatalf("end = %v, want 30ns", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(10*Microsecond, func() { fired = true })
	k.Run(5 * Microsecond)
	if fired {
		t.Fatal("event past horizon fired")
	}
	if k.Now() != Time(5*Microsecond) {
		t.Fatalf("clock = %v, want 5µs", k.Now())
	}
	k.Run(0)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestProcWait(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Go("p", func(p *Proc) {
		p.Wait(100 * Nanosecond)
		at1 = p.Now()
		p.Wait(400 * Nanosecond)
		at2 = p.Now()
	})
	k.Run(0)
	if at1 != Time(100*Nanosecond) || at2 != Time(500*Nanosecond) {
		t.Fatalf("at1=%v at2=%v", at1, at2)
	}
}

func TestProcInterleaving(t *testing.T) {
	// Two processes waiting different amounts must interleave
	// deterministically by time then spawn order.
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		p.Wait(10 * Nanosecond)
		order = append(order, "a10")
		p.Wait(20 * Nanosecond)
		order = append(order, "a30")
	})
	k.Go("b", func(p *Proc) {
		p.Wait(15 * Nanosecond)
		order = append(order, "b15")
		p.Wait(15 * Nanosecond)
		order = append(order, "b30")
	})
	k.Run(0)
	want := []string{"a10", "b15", "a30", "b30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "c", 0)
	var got int
	var sendDone, recvDone Time
	k.Go("sender", func(p *Proc) {
		p.Wait(10 * Nanosecond)
		c.Send(p, 42)
		sendDone = p.Now()
	})
	k.Go("receiver", func(p *Proc) {
		p.Wait(50 * Nanosecond)
		got = c.Recv(p).(int)
		recvDone = p.Now()
	})
	k.Run(0)
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	// Rendezvous: sender blocks until the receiver arrives at t=50ns.
	if sendDone != Time(50*Nanosecond) || recvDone != Time(50*Nanosecond) {
		t.Fatalf("sendDone=%v recvDone=%v, want 50ns both", sendDone, recvDone)
	}
}

func TestChanBuffered(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "c", 2)
	var sendTimes []Time
	k.Go("sender", func(p *Proc) {
		for i := 0; i < 3; i++ {
			c.Send(p, i)
			sendTimes = append(sendTimes, p.Now())
		}
	})
	var got []int
	k.Go("receiver", func(p *Proc) {
		p.Wait(100 * Nanosecond)
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p).(int))
		}
	})
	k.Run(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
	// First two sends buffer immediately at t=0; third blocks until 100ns.
	if sendTimes[0] != 0 || sendTimes[1] != 0 || sendTimes[2] != Time(100*Nanosecond) {
		t.Fatalf("sendTimes = %v", sendTimes)
	}
}

func TestChanFIFOAcrossSenders(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "c", 0)
	for i := 0; i < 5; i++ {
		v := i
		k.Go("s", func(p *Proc) { c.Send(p, v) })
	}
	var got []int
	k.Go("r", func(p *Proc) {
		p.Wait(Nanosecond)
		for i := 0; i < 5; i++ {
			got = append(got, c.Recv(p).(int))
		}
	})
	k.Run(0)
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v, want FIFO order", got)
		}
	}
}

func TestSelect(t *testing.T) {
	k := NewKernel()
	a := NewChan(k, "a", 0)
	b := NewChan(k, "b", 0)
	k.Go("sb", func(p *Proc) {
		p.Wait(30 * Nanosecond)
		b.Send(p, "from-b")
	})
	var idx int
	var val interface{}
	k.Go("sel", func(p *Proc) {
		idx, val = Select(p, a, b)
	})
	k.Run(0)
	if idx != 1 || val.(string) != "from-b" {
		t.Fatalf("idx=%d val=%v", idx, val)
	}
}

func TestSelectPriority(t *testing.T) {
	// When both channels are ready, the earlier one wins (PRI ALT).
	k := NewKernel()
	a := NewChan(k, "a", 1)
	b := NewChan(k, "b", 1)
	k.Go("s", func(p *Proc) {
		b.Send(p, 2)
		a.Send(p, 1)
	})
	var idx int
	k.Go("sel", func(p *Proc) {
		p.Wait(Nanosecond)
		idx, _ = Select(p, a, b)
	})
	k.Run(0)
	if idx != 0 {
		t.Fatalf("idx=%d, want 0 (priority)", idx)
	}
}

func TestResource(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "port", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, 100*Nanosecond)
			done = append(done, p.Now())
		})
	}
	k.Run(0)
	want := []Time{Time(100 * Nanosecond), Time(200 * Nanosecond), Time(300 * Nanosecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceMultiUnit(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dual", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, 100*Nanosecond)
			done = append(done, p.Now())
		})
	}
	k.Run(0)
	// Two at a time: finish at 100,100,200,200.
	want := []Time{Time(100 * Nanosecond), Time(100 * Nanosecond), Time(200 * Nanosecond), Time(200 * Nanosecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "u", 1)
	k.Go("p", func(p *Proc) {
		r.Use(p, 50*Nanosecond)
		p.Wait(50 * Nanosecond)
	})
	k.Run(0)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestKill(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "c", 0)
	reached := false
	victim := k.Go("victim", func(p *Proc) {
		c.Recv(p) // blocks forever
		reached = true
	})
	cleanup := false
	k.Go("killer", func(p *Proc) {
		p.Wait(10 * Nanosecond)
		victim.Kill()
	})
	victim.OnExit(func() { cleanup = true })
	k.Run(0)
	if reached {
		t.Fatal("victim ran past kill point")
	}
	if !cleanup {
		t.Fatal("OnExit did not run")
	}
	if !victim.Done() {
		t.Fatal("victim not done")
	}
}

func TestJoin(t *testing.T) {
	k := NewKernel()
	var joinedAt Time
	child := k.Go("child", func(p *Proc) { p.Wait(75 * Nanosecond) })
	k.Go("parent", func(p *Proc) {
		p.Join(child)
		joinedAt = p.Now()
	})
	k.Run(0)
	if joinedAt != Time(75*Nanosecond) {
		t.Fatalf("joinedAt = %v", joinedAt)
	}
}

func TestJoinFinished(t *testing.T) {
	k := NewKernel()
	child := k.Go("child", func(p *Proc) {})
	var ok bool
	k.Go("parent", func(p *Proc) {
		p.Wait(Microsecond)
		p.Join(child) // already done: must not block
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("join on finished proc blocked")
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	k := NewKernel()
	c := NewChan(k, "c", 0)
	k.Go("stuck", func(p *Proc) { c.Recv(p) })
	k.Run(0)
}

func TestDeterminism(t *testing.T) {
	// The same program must produce an identical event trace on every run.
	run := func() []string {
		var trace []string
		k := NewKernel()
		c := NewChan(k, "c", 1)
		for i := 0; i < 4; i++ {
			id := i
			k.Go("w", func(p *Proc) {
				p.Wait(Duration(id+1) * 10 * Nanosecond)
				c.Send(p, id)
				trace = append(trace, p.Now().String())
			})
		}
		k.Go("r", func(p *Proc) {
			for i := 0; i < 4; i++ {
				v := c.Recv(p).(int)
				p.Wait(25 * Nanosecond)
				trace = append(trace, p.Now().String()+"#"+string(rune('0'+v)))
			}
		})
		k.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestQuickResourceConservation(t *testing.T) {
	// Property: for any set of hold times on a single-unit resource, the
	// total completion time equals the sum of holds (perfect FIFO, no
	// lost or duplicated units).
	f := func(holds []uint8) bool {
		if len(holds) == 0 || len(holds) > 50 {
			return true
		}
		k := NewKernel()
		r := NewResource(k, "r", 1)
		var total Duration
		for _, h := range holds {
			d := Duration(h) * Nanosecond
			total += d
			k.Go("p", func(p *Proc) { r.Use(p, d) })
		}
		end := k.Run(0)
		return end == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChanDelivery(t *testing.T) {
	// Property: every value sent is received exactly once, in per-sender
	// order, for any buffer capacity.
	f := func(n uint8, capacity uint8) bool {
		count := int(n%40) + 1
		k := NewKernel()
		c := NewChan(k, "c", int(capacity%8))
		k.Go("s", func(p *Proc) {
			for i := 0; i < count; i++ {
				p.Wait(Nanosecond)
				c.Send(p, i)
			}
		})
		got := make([]int, 0, count)
		k.Go("r", func(p *Proc) {
			for i := 0; i < count; i++ {
				got = append(got, c.Recv(p).(int))
			}
		})
		k.Run(0)
		if len(got) != count {
			return false
		}
		for i := 0; i < count; i++ {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected process panic to surface")
		}
	}()
	k := NewKernel()
	k.Go("bad", func(p *Proc) { panic("boom") })
	k.Run(0)
}

func TestKillBeforeFirstRun(t *testing.T) {
	// Killing a process that has not yet blocked terminates it at its
	// first blocking point.
	k := NewKernel()
	ran := false
	p1 := k.Go("victim", func(p *Proc) {
		p.Wait(10 * Nanosecond)
		ran = true
	})
	p1.Kill()
	k.Run(0)
	if ran {
		t.Fatal("killed process ran past its first block")
	}
	// Killing a finished process is a no-op.
	p2 := k.Go("done", func(p *Proc) {})
	k.Run(0)
	p2.Kill()
	if !p2.Done() {
		t.Fatal("finished proc un-done by Kill")
	}
}

func TestYieldOrdersWithSameInstantEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run(0)
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestChanLenAndName(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "pipe", 4)
	if c.Name() != "pipe" || c.Len() != 0 {
		t.Fatal("metadata wrong")
	}
	k.Go("s", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
	})
	k.Run(0)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestResourceInUse(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	k.Go("p", func(p *Proc) {
		r.Acquire(p)
		if r.InUse() != 1 {
			t.Errorf("InUse = %d", r.InUse())
		}
		r.Release()
	})
	k.Run(0)
	if r.InUse() != 0 {
		t.Fatalf("InUse after release = %d", r.InUse())
	}
	if r.Name() != "r" {
		t.Fatal("name wrong")
	}
}
