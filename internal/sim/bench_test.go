package sim

import "testing"

// Microbenchmarks for the kernel hot paths. Each one isolates a single
// scheduling primitive so regressions are attributable: the same-instant
// lane (AtNow), the heap calendar (AtFuture), the park/unpark slot
// transfer, channel rendezvous, and resource contention. All report
// allocs/op; the same-instant lane and the steady-state park/unpark path
// must stay allocation-free (see TestSameInstantLaneZeroAllocs).

// BenchmarkAtNow measures the same-instant event lane: one self-
// rescheduling callback executed b.N times inside a single Run.
func BenchmarkAtNow(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		if n++; n < b.N {
			k.At(k.Now(), step)
		}
	}
	k.At(0, step)
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkAtFuture measures the future-time queue: each event schedules
// its successor one nanosecond ahead, so every iteration pays one queue
// insert and one queue pop.
func BenchmarkAtFuture(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		if n++; n < b.N {
			k.At(k.Now().Add(Nanosecond), step)
		}
	}
	k.At(0, step)
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkAtFutureSpread measures the queue with many pending events at
// distinct times: 512, several times the deepest calendar a benchmark
// workload builds, so each push and pop sifts through nine levels.
func BenchmarkAtFutureSpread(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	const window = 512 // pending events at any instant
	n := 0
	var step func()
	step = func() {
		if n++; n < b.N {
			k.At(k.Now().Add(Duration(1+n%37)*100*Nanosecond), step)
		}
	}
	for i := 0; i < window; i++ {
		k.At(Time(0).Add(Duration(i)*3*Nanosecond), step)
	}
	n = 0
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkParkUnpark measures the process slot transfer: two processes
// alternately yielding, so every iteration is one park plus one unpark
// with a goroutine handoff in between.
func BenchmarkParkUnpark(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	iters := b.N/2 + 1
	body := func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Yield()
		}
	}
	k.Go("a", body)
	k.Go("b", body)
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkWaitResume measures a lone process sleeping on the simulated
// clock: one future-time event plus one park/resume per iteration.
func BenchmarkWaitResume(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkChanSendRecv measures a rendezvous channel ping: each
// iteration is one Send and one Recv, each parking its process.
func BenchmarkChanSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	c := NewChan(k, "bench", 0)
	k.Go("tx", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Send(p, i)
		}
	})
	k.Go("rx", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Recv(p)
		}
	})
	b.ResetTimer()
	k.Run(0)
}

// BenchmarkResourceContention measures FIFO queuing on a single-unit
// resource under four contending processes.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	r := NewResource(k, "bus", 1)
	const procs = 4
	iters := b.N/procs + 1
	for i := 0; i < procs; i++ {
		k.Go("user", func(p *Proc) {
			for j := 0; j < iters; j++ {
				r.Use(p, Nanosecond)
			}
		})
	}
	b.ResetTimer()
	k.Run(0)
}
