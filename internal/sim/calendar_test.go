package sim

import (
	"math/rand"
	"testing"
)

// TestCalendarMatchesReferenceOrder drives the event calendar with random
// push/pop sequences and checks every pop against a brute-force reference
// minimum by (at, seq). The delays mix near-future and far-future events
// with dense near-now ties, and the queue drains to empty between trials.
func TestCalendarMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q eventHeap
		var model []*event
		var now Time
		var seq int64

		pop := func() {
			if len(q) == 0 {
				t.Fatalf("trial %d: queue empty with %d modeled events", trial, len(model))
			}
			e := q[0]
			best := 0
			for i, m := range model {
				if m.at < model[best].at || (m.at == model[best].at && m.seq < model[best].seq) {
					best = i
				}
			}
			want := model[best]
			model = append(model[:best], model[best+1:]...)
			if e != want {
				t.Fatalf("trial %d: popped (at=%d seq=%d), want (at=%d seq=%d)",
					trial, e.at, e.seq, want.at, want.seq)
			}
			if e.at < now {
				t.Fatalf("trial %d: time went backwards: %d < %d", trial, e.at, now)
			}
			now = e.at
			if got := q.hpop(); got != e {
				t.Fatalf("trial %d: pop returned (at=%d seq=%d), not the head", trial, got.at, got.seq)
			}
			if len(q) != len(model) {
				t.Fatalf("trial %d: size %d, model %d", trial, len(q), len(model))
			}

			// The kernel's due-now test (head instant equals the clock)
			// must agree with the model.
			var due *event
			if len(q) > 0 && q[0].at == now {
				due = q[0]
			}
			var wantDue *event
			for _, m := range model {
				if m.at == now && (wantDue == nil || m.seq < wantDue.seq) {
					wantDue = m
				}
			}
			if due != wantDue {
				t.Fatalf("trial %d: due at %d = %v, want %v", trial, now, due, wantDue)
			}
		}

		for op := 0; op < 2000; op++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			var d Duration
			switch rng.Intn(3) {
			case 0:
				d = Duration(1 + rng.Int63n(int64(Microsecond))) // near future: bit times, DMA startups
			case 1:
				d = Duration(1 + rng.Int63n(int64(Millisecond))) // far future: timers, fault injections
			case 2:
				d = Duration(1 + rng.Int63n(4)) // dense near-now, forcing (at, seq) ties
			}
			seq++
			e := &event{at: now.Add(d), seq: seq}
			q.hpush(e)
			model = append(model, e)
		}
		for len(model) > 0 {
			pop()
		}
		if len(q) != 0 {
			t.Fatalf("trial %d: queue not empty after draining model", trial)
		}
	}
}

// TestSameInstantLaneZeroAllocs is the regression gate for the fast lane:
// scheduling and running events at the current instant must not allocate
// once the lane ring has grown to size. This is what keeps unpark, Yield,
// and spawn-at-now off the garbage collector entirely.
func TestSameInstantLaneZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 128; i++ { // pre-grow the ring
		k.At(k.Now(), fn)
	}
	k.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			k.At(k.Now(), fn)
		}
		k.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("same-instant lane: %.1f allocs/run, want 0", allocs)
	}
}

// TestBufferedChanZeroAllocs checks that a buffered channel keeps its
// buffer's array: a send into free space and the receive that drains
// it allocate nothing once warm.
func TestBufferedChanZeroAllocs(t *testing.T) {
	k := NewKernel()
	c := NewChan(k, "c", 4)
	var v interface{} = 7 // boxed once, outside the measured loop
	allocs := -1.0
	k.Go("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			c.Send(p, v)
			c.Recv(p)
		})
	})
	k.Run(0)
	if allocs != 0 {
		t.Fatalf("buffered send+recv: %.1f allocs/op, want 0", allocs)
	}
}

// TestContendedResourceZeroAllocs checks that a resource's wait queue
// keeps its array: a Use that queues behind another holder allocates
// nothing once warm.
func TestContendedResourceZeroAllocs(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1)
	done := false
	k.Go("rival", func(p *Proc) {
		for !done {
			r.Use(p, Nanosecond)
		}
	})
	allocs := -1.0
	k.Go("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			if r.InUse() == 0 {
				t.Error("the rival does not hold the resource: Use is not contended")
			}
			r.Use(p, Nanosecond)
		})
		done = true
	})
	k.Run(0)
	if allocs != 0 {
		t.Fatalf("contended Use: %.1f allocs/op, want 0", allocs)
	}
}

// TestFutureEventsZeroAllocsSteadyState checks the event pool: once the
// free list and the heap's backing array are warm, future-time
// scheduling recycles records instead of allocating.
func TestFutureEventsZeroAllocsSteadyState(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the pool and heap capacity
		k.At(k.Now().Add(Duration(i+1)*Nanosecond), fn)
	}
	k.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.At(k.Now().Add(Duration(i+1)*Nanosecond), fn)
		}
		k.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("pooled future events: %.1f allocs/run, want 0", allocs)
	}
}
