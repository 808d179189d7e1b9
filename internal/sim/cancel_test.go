package sim

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tseries/internal/leakcheck"
)

// waitGoroutines fails t unless the goroutine count falls back to at
// most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	if err := leakcheck.Wait(base); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidRunUnwindsAllProcs cancels a context while a simulation
// with many interacting processes is running: Run must return promptly,
// Err must report the cancellation, and every process goroutine —
// including daemons and processes blocked on channels, timers, and
// resources — must exit.
func TestCancelMidRunUnwindsAllProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	k := NewKernelCtx(ctx)

	ch := NewChan(k, "ch", 0)
	res := NewResource(k, "res", 1)
	k.Serve("drain", ch, func(*Proc, interface{}) {})
	for i := 0; i < 8; i++ {
		k.Go("worker", func(p *Proc) {
			for {
				res.Use(p, 3*Cycle)
				ch.Send(p, 1)
				p.Wait(5 * Cycle)
			}
		})
	}
	// Cancel from outside once the simulation is demonstrably running.
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()

	done := make(chan Time, 1)
	go func() { done <- k.Run(0) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !k.Canceled() || k.Err() != context.Canceled {
		t.Fatalf("Canceled = %v, Err = %v; want true, context.Canceled", k.Canceled(), k.Err())
	}
	waitGoroutines(t, base)
}

// TestCancelBeforeRun covers the pre-canceled path: a kernel bound to an
// already-canceled context must kill freshly spawned processes before
// their bodies run.
func TestCancelBeforeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := NewKernelCtx(ctx)
	ran := false
	k.Go("body", func(p *Proc) {
		// The first dispatch boundary fires the cancellation check, so
		// the body may start; any park must then unwind it.
		p.Wait(Cycle)
		p.Wait(Cycle)
		ran = true
	})
	k.Run(0)
	if k.Err() == nil {
		t.Fatal("Err = nil after canceled run")
	}
	if ran {
		t.Fatal("process body ran to completion under a canceled context")
	}
	waitGoroutines(t, base)
}

// TestUnboundContextCostsNothing pins the contract that a kernel without
// a bound context (or bound to Background) behaves exactly as before.
func TestUnboundContextCostsNothing(t *testing.T) {
	k := NewKernelCtx(context.Background())
	if k.cancelCh != nil {
		t.Fatal("Background context armed the cancel channel")
	}
	n := 0
	k.Go("count", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(Cycle)
			n++
		}
	})
	k.Run(0)
	if n != 1000 || k.Err() != nil {
		t.Fatalf("n = %d, Err = %v", n, k.Err())
	}
}

// TestPanicTeardownLeaksNoGoroutines: a panicking process must still
// propagate its panic out of Run, but the other blocked processes must
// be unwound rather than stranded — the contract a long-running job
// server relies on to isolate a poisoned job.
func TestPanicTeardownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan(k, "ch", 0)
	for i := 0; i < 4; i++ {
		k.Go("blocked", func(p *Proc) {
			ch.Recv(p) // never satisfied
		})
	}
	k.Go("bomb", func(p *Proc) {
		p.Wait(Cycle)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Run did not propagate the process panic")
			}
		}()
		k.Run(0)
	}()
	waitGoroutines(t, base)
}
