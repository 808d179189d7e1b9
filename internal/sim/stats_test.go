package sim

import (
	"strings"
	"testing"
)

func TestKernelStatsCounts(t *testing.T) {
	k := NewKernel()
	ch := NewChan(k, "ch", 0)
	k.Go("producer", func(p *Proc) {
		p.Wait(Microsecond)
		ch.Send(p, 42)
	})
	k.Go("consumer", func(p *Proc) {
		if got := ch.Recv(p).(int); got != 42 {
			t.Errorf("recv = %d", got)
		}
	})
	k.Run(0)

	s := k.Stats()
	if s.Spawned != 2 || s.Finished != 2 {
		t.Fatalf("spawned=%d finished=%d, want 2/2", s.Spawned, s.Finished)
	}
	// The rendezvous blocks at least one side, and something wakes it.
	if s.Events == 0 || s.Parks == 0 || s.Unparks == 0 {
		t.Fatalf("events=%d parks=%d unparks=%d, want all > 0", s.Events, s.Parks, s.Unparks)
	}
	if s.MaxQueue < 1 {
		t.Fatalf("maxqueue=%d", s.MaxQueue)
	}
	if s.Now != k.Now() {
		t.Fatalf("snapshot clock %v != %v", s.Now, k.Now())
	}
}

func TestKernelNamedCounters(t *testing.T) {
	k := NewKernel()
	k.Go("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			k.Count("widget.bytes", 10)
			p.Wait(Nanosecond)
		}
	})
	k.Run(0)
	if got := k.Counter("widget.bytes"); got != 30 {
		t.Fatalf("counter = %d", got)
	}
	if got := k.Counter("never"); got != 0 {
		t.Fatalf("unset counter = %d", got)
	}
	s := k.Stats()
	if s.Counters["widget.bytes"] != 30 {
		t.Fatalf("stats counters = %v", s.Counters)
	}
	// The snapshot is a copy: mutating it must not affect the kernel.
	s.Counters["widget.bytes"] = 999
	if k.Counter("widget.bytes") != 30 {
		t.Fatal("stats snapshot aliases kernel state")
	}
	if !strings.Contains(s.String(), "widget.bytes=999") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestStatsResourceSnapshot(t *testing.T) {
	k := NewKernel()
	r1 := NewResource(k, "bus", 1)
	NewResource(k, "dma", 2)
	k.Go("user", func(p *Proc) {
		r1.Use(p, 3*Microsecond)
		p.Wait(Microsecond)
	})
	k.Run(0)
	s := k.Stats()
	if len(s.Resources) != 2 {
		t.Fatalf("resources = %d", len(s.Resources))
	}
	if s.Resources[0].Name != "bus" || s.Resources[1].Name != "dma" {
		t.Fatalf("resource order: %v", s.Resources)
	}
	bus := s.Resources[0]
	if bus.Busy != 3*Microsecond {
		t.Fatalf("bus busy = %v", bus.Busy)
	}
	if want := 0.75; bus.Utilization != want {
		t.Fatalf("bus utilization = %g, want %g", bus.Utilization, want)
	}
	if dma := s.Resources[1]; dma.Utilization != 0 || dma.Busy != 0 {
		t.Fatalf("idle resource reports %+v", dma)
	}
}
