package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// buildRing constructs a token-ring model on g: each shard runs a
// self-paced worker that ticks local timers and forwards a counter
// token around the ring `rounds` times. Returns the slice the final
// token values land in.
func buildRing(g *ShardGroup, rounds int, latency Duration) []int {
	n := g.Shards()
	fwd := make([]*XChan, n)
	for i := 0; i < n; i++ {
		fwd[i] = g.Connect(i, (i+1)%n, fmt.Sprintf("ring%d", i), latency, 4)
	}
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		k := g.Shard(i)
		k.Go(fmt.Sprintf("node%d", i), func(p *Proc) {
			// Local busywork: a deterministic timer chain.
			for t := 0; t < 50; t++ {
				p.Wait(Duration(1+(i*7+t*3)%13) * Microsecond)
				k.Count("ticks", 1)
			}
		})
		k.Go(fmt.Sprintf("relay%d", i), func(p *Proc) {
			if i == 0 {
				fwd[0].Send(p, 1) // inject the token
			}
			for r := 0; r < rounds; r++ {
				v := fwd[(i+n-1)%n].Recv(p).(int)
				got[i] = v
				if i == 0 && r == rounds-1 {
					return // token retired after the last circuit
				}
				fwd[i].Send(p, v+1)
			}
		})
	}
	return got
}

// ringStats runs an n-shard ring with the given worker count and
// returns its aggregate stats plus final token values.
func ringStats(t *testing.T, n, workers, rounds int) (Stats, []int) {
	t.Helper()
	g := NewShardGroup(n)
	g.SetWorkers(workers)
	got := buildRing(g, rounds, 5*Microsecond)
	g.Run(0)
	if err := g.Err(); err != nil {
		t.Fatalf("ring run failed: %v", err)
	}
	return g.Stats(), got
}

// TestShardWorkersInvariant is the tentpole contract: the physical
// worker count must not change any observable result — clocks, token
// values, or any Stats field including the per-shard breakdown.
func TestShardWorkersInvariant(t *testing.T) {
	base, baseTok := ringStats(t, 4, 1, 6)
	for _, w := range []int{2, 3, 4, 16} {
		s, tok := ringStats(t, 4, w, 6)
		if !reflect.DeepEqual(tok, baseTok) {
			t.Errorf("workers=%d token values %v != serial %v", w, tok, baseTok)
		}
		if !reflect.DeepEqual(s, base) {
			t.Errorf("workers=%d stats diverge:\n  got  %+v\n  want %+v", w, s, base)
		}
	}
	if base.Windows == 0 || base.CrossShard == 0 {
		t.Errorf("expected windows and cross-shard traffic, got %+v", base)
	}
	if len(base.Shards) != 4 {
		t.Errorf("expected 4 shard summaries, got %d", len(base.Shards))
	}
}

// TestShardRepeatDeterminism: same topology, same group, run twice from
// scratch — byte-identical stats strings and equal snapshots.
func TestShardRepeatDeterminism(t *testing.T) {
	a, _ := ringStats(t, 3, 3, 5)
	b, _ := ringStats(t, 3, 3, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat run diverged:\n  a %+v\n  b %+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("repeat run strings diverged:\n  a %s\n  b %s", a, b)
	}
}

// TestShardSerialEquivalence checks the conservative windows against
// ground truth: the same logical model built on a single Kernel, with
// each XChan replaced by a latency-delayed local delivery, must produce
// the same per-node receive timeline.
func TestShardSerialEquivalence(t *testing.T) {
	const n, msgs = 3, 8
	lat := 7 * Microsecond

	type rx struct {
		at Time
		v  int
	}

	// Per-node timelines: shard processes must not share mutable state,
	// so each node appends only to its own slice.
	run := func(trace [][]rx, send func(i int, p *Proc, v int), recv func(i int, p *Proc) int, spawn func(i int, name string, fn func(p *Proc)), now func(i int) Time) {
		for i := 0; i < n; i++ {
			i := i
			spawn(i, fmt.Sprintf("n%d", i), func(p *Proc) {
				for m := 0; m < msgs; m++ {
					if i == 0 {
						p.Wait(Duration(m+1) * Microsecond)
						send(0, p, m)
					} else {
						v := recv(i, p)
						trace[i] = append(trace[i], rx{now(i), v})
						if i < n-1 {
							send(i, p, v)
						}
					}
				}
			})
		}
	}

	// Ground truth: one kernel, delayed local channels.
	serialTrace := make([][]rx, n)
	{
		k := NewKernel()
		chans := make([]*Chan, n)
		for i := range chans {
			chans[i] = NewChan(k, fmt.Sprintf("c%d", i), 4)
		}
		run(serialTrace,
			func(i int, p *Proc, v int) {
				c := chans[i+1]
				k.At(k.Now().Add(lat), func() { c.push(v) })
			},
			func(i int, p *Proc) int { return chans[i].Recv(p).(int) },
			func(i int, name string, fn func(p *Proc)) { k.Go(name, fn) },
			func(i int) Time { return k.Now() },
		)
		k.Run(0)
	}

	// Sharded: one node per shard, XChan pipeline.
	shardTrace := make([][]rx, n)
	{
		g := NewShardGroup(n)
		g.SetWorkers(n)
		edges := make([]*XChan, n)
		for i := 0; i < n-1; i++ {
			edges[i+1] = g.Connect(i, i+1, fmt.Sprintf("c%d", i+1), lat, 4)
		}
		run(shardTrace,
			func(i int, p *Proc, v int) { edges[i+1].Send(p, v) },
			func(i int, p *Proc) int { return edges[i].Recv(p).(int) },
			func(i int, name string, fn func(p *Proc)) { g.Shard(i).Go(name, fn) },
			func(i int) Time { return g.Shard(i).Now() },
		)
		g.Run(0)
	}

	for i := 1; i < n; i++ {
		if len(shardTrace[i]) == 0 || !reflect.DeepEqual(serialTrace[i], shardTrace[i]) {
			t.Errorf("node %d timeline diverged:\n  serial %v\n  shard  %v", i, serialTrace[i], shardTrace[i])
		}
	}
}

// TestShardHorizon: a horizon-bounded run stops every shard clock at
// the horizon, runs events at exactly the horizon, and leaves later
// events queued.
func TestShardHorizon(t *testing.T) {
	g := NewShardGroup(2)
	g.Connect(0, 1, "x", 5*Microsecond, 1)
	var atH, afterH bool
	g.Shard(0).After(10*Microsecond, func() { atH = true })
	g.Shard(1).After(11*Microsecond, func() { afterH = true })
	end := g.Run(10 * Microsecond)
	if !atH {
		t.Error("event at the horizon did not run")
	}
	if afterH {
		t.Error("event beyond the horizon ran")
	}
	if want := Time(0).Add(10 * Microsecond); end != want {
		t.Errorf("end clock %v, want %v", end, want)
	}
	if g.Shard(1).Pending() != 1 {
		t.Errorf("event beyond the horizon was dropped")
	}
}

// blockedOnXChan builds a 2-shard group with n processes on shard 1
// blocked on an XChan that never fires.
func blockedOnXChan(n int) *ShardGroup {
	g := NewShardGroup(2)
	x := g.Connect(0, 1, "never", Microsecond, 0)
	for i := 0; i < n; i++ {
		g.Shard(1).Go("waiter", func(p *Proc) { x.Recv(p) })
	}
	return g
}

// runPanics runs g and returns the value its Run panicked with.
func runPanics(t *testing.T, g *ShardGroup) (r interface{}) {
	t.Helper()
	defer func() { r = recover() }()
	g.Run(0)
	t.Fatal("Run returned without panicking")
	return nil
}

// TestShardDeadlock: processes blocked across shards with no pending
// events anywhere must trip the group-level deadlock panic, and the
// panic must not strand their goroutines.
func TestShardDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	r := runPanics(t, blockedOnXChan(50))
	if !strings.Contains(fmt.Sprint(r), "deadlock") {
		t.Fatalf("unexpected panic: %v", r)
	}
	waitGoroutines(t, base)
}

// TestShardGlobalPanicTeardown: a panicking Global fn propagates out of
// Run after every shard is torn down — the blocked processes and the
// Global's own requester included.
func TestShardGlobalPanicTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	g := blockedOnXChan(50)
	g.Shard(0).Go("global", func(p *Proc) {
		g.Global(p, func(Time) { panic("boom") })
	})
	if r := runPanics(t, g); fmt.Sprint(r) != "boom" {
		t.Fatalf("expected boom, got %v", r)
	}
	waitGoroutines(t, base)
}

// TestShardCancellation: canceling the bound context mid-run tears down
// every shard, leaves no live processes, and reports the cause.
func TestShardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewShardGroupCtx(ctx, 3)
	g.SetWorkers(3)
	buildRing(g, 1000000, 2*Microsecond)
	// Cancel from inside the simulation once it is demonstrably moving.
	g.Shard(0).After(200*Microsecond, func() { cancel() })
	g.Run(0)
	if !g.Canceled() {
		t.Fatal("group did not observe cancellation")
	}
	if g.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", g.Err())
	}
	for i := 0; i < g.Shards(); i++ {
		if got := g.Shard(i).Stats().LiveProcs; got != 0 {
			t.Errorf("shard %d leaked %d processes after cancel", i, got)
		}
	}
}

// TestShardPanicTeardown: a process panic on one shard propagates out
// of Run after all shards are torn down.
func TestShardPanicTeardown(t *testing.T) {
	g := NewShardGroup(2)
	g.SetWorkers(2)
	g.Connect(0, 1, "x", Microsecond, 1)
	g.Shard(1).Go("bomb", func(p *Proc) {
		p.Wait(3 * Microsecond)
		panic("boom")
	})
	g.Shard(0).Go("bystander", func(p *Proc) {
		for {
			p.Wait(Microsecond)
		}
	})
	func() {
		defer func() {
			if r := recover(); fmt.Sprint(r) != "boom" {
				t.Fatalf("expected boom, got %v", r)
			}
		}()
		g.Run(0)
	}()
	for i := 0; i < g.Shards(); i++ {
		if got := g.Shard(i).Stats().LiveProcs; got != 0 {
			t.Errorf("shard %d leaked %d processes after panic", i, got)
		}
	}
}

// TestShardLatencyBoundary: a message sent at t with edge latency L
// must be receivable at exactly t+L, not a window later.
func TestShardLatencyBoundary(t *testing.T) {
	g := NewShardGroup(2)
	const lat = 5 * Microsecond
	x := g.Connect(0, 1, "x", lat, 1)
	var sentAt, gotAt Time
	g.Shard(0).Go("src", func(p *Proc) {
		p.Wait(3 * Microsecond)
		sentAt = p.Now()
		x.Send(p, 42)
	})
	g.Shard(1).Go("dst", func(p *Proc) {
		if v := x.Recv(p).(int); v != 42 {
			t.Errorf("got %d, want 42", v)
		}
		gotAt = p.Now()
	})
	g.Run(0)
	if want := sentAt.Add(lat); gotAt != want {
		t.Errorf("delivered at %v, want %v (sent %v + latency %v)", gotAt, want, sentAt, lat)
	}
}

// TestShardMergeOrder: messages delivered at the same instant to the
// same shard arrive in edge-registration order, whichever shard's
// window executed first and whichever edge staged first; two sends on
// one edge keep their send order, and a later arrival comes later
// whatever its edge.
func TestShardMergeOrder(t *testing.T) {
	g := NewShardGroup(3)
	const lat = 5 * Microsecond
	inbox := NewChan(g.Shard(0), "inbox", 8)
	a := g.ConnectInto(2, 0, lat, inbox) // registered first: wins every tie
	b := g.ConnectInto(1, 0, lat, inbox)
	c := g.ConnectInto(1, 0, lat, inbox)
	g.Shard(1).Go("s1", func(p *Proc) {
		c.Send(p, "c1") // c stages before b
		b.Send(p, "b")
		c.Send(p, "c2")
	})
	g.Shard(2).Go("s2", func(p *Proc) {
		a.PostDelayed("z", lat+1)
		a.Send(p, "a")
	})
	var order []string
	g.Shard(0).Go("sink", func(p *Proc) {
		for len(order) < 5 {
			order = append(order, inbox.Recv(p).(string))
		}
	})
	g.Run(0)
	if got := strings.Join(order, " "); got != "a b c1 c2 z" {
		t.Errorf("merge order %q, want \"a b c1 c2 z\"", got)
	}
}

// TestShardLowestPanicWins: when several shards panic in one window,
// Run re-raises the lowest one's value at every worker count, whichever
// goroutine ran it, and leaves no goroutine behind.
func TestShardLowestPanicWins(t *testing.T) {
	for _, bombs := range [][]int{{1, 3}, {0, 2, 3}, {2, 3}} {
		for workers := 1; workers <= 4; workers++ {
			base := runtime.NumGoroutine()
			g := NewShardGroup(4)
			g.SetWorkers(workers)
			g.Connect(0, 1, "x", Microsecond, 1)
			for _, s := range bombs {
				g.Shard(s).Go("bomb", func(p *Proc) {
					p.Wait(3 * Microsecond)
					panic(fmt.Sprint("boom", s))
				})
			}
			want := fmt.Sprint("boom", bombs[0])
			if r := runPanics(t, g); fmt.Sprint(r) != want {
				t.Errorf("bombs %v, workers %d: panic %v, want %s", bombs, workers, r, want)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestShardLocalEdge: a src==dst edge behaves as a plain delayed
// channel and does not shrink the group lookahead.
func TestShardLocalEdge(t *testing.T) {
	g := NewShardGroup(2)
	g.Connect(0, 1, "far", 10*Microsecond, 1)
	loc := g.Connect(0, 0, "loop", Microsecond, 1)
	if g.Lookahead() != 10*Microsecond {
		t.Fatalf("local edge changed lookahead to %v", g.Lookahead())
	}
	var gotAt Time
	g.Shard(0).Go("self", func(p *Proc) {
		loc.Send(p, 7)
		if v := loc.Recv(p).(int); v != 7 {
			t.Errorf("got %d", v)
		}
		gotAt = p.Now()
	})
	g.Run(0)
	if gotAt != Time(0).Add(Microsecond) {
		t.Errorf("local delivery at %v, want 1µs", gotAt)
	}
}

// TestShardWrongShardSend: sending from a process of the wrong shard is
// a programming error and must panic loudly rather than race silently.
func TestShardWrongShardSend(t *testing.T) {
	g := NewShardGroup(2)
	x := g.Connect(0, 1, "x", Microsecond, 1)
	g.Shard(1).Go("wrong", func(p *Proc) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "wrong shard") {
				panic(fmt.Sprintf("expected wrong-shard panic, got %v", r))
			}
		}()
		x.Send(p, 1)
	})
	g.Shard(1).Go("sink", func(p *Proc) { x.Recv(p) })
	g.Shard(0).Go("src", func(p *Proc) {
		p.Wait(Microsecond)
		x.Send(p, 2)
	})
	g.Run(0)
}

// TestShardConnectRejectsBadEdges: an edge outside the group or without
// a positive latency (the lookahead) is a programming error that Connect
// refuses loudly, naming what is wrong.
func TestShardConnectRejectsBadEdges(t *testing.T) {
	g := NewShardGroup(2)
	for _, c := range []struct {
		src, dst int
		lat      Duration
		want     string
	}{
		{0, 2, Microsecond, "outside group"},
		{-1, 1, Microsecond, "outside group"},
		{0, 1, 0, "positive latency"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("Connect(%d, %d, %v): panic %v, want one containing %q", c.src, c.dst, c.lat, r, c.want)
				}
			}()
			g.Connect(c.src, c.dst, "bad", c.lat, 1)
		}()
	}
}

// TestShardRandomTopology is the randomized property test at the sim
// layer: arbitrary shard counts, edge sets, and timer loads must give
// worker-count-invariant stats.
func TestShardRandomTopology(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := int64(1000 + trial)
		build := func(workers int) Stats {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(4)
			g := NewShardGroup(n)
			g.SetWorkers(workers)
			// Random sparse edges (guaranteed at least one).
			edges := make([]*XChan, 0, 2*n)
			for i := 0; i < 2*n; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				lat := Duration(1+rng.Intn(20)) * Microsecond
				edges = append(edges, g.Connect(src, dst, fmt.Sprintf("e%d", i), lat, 8))
			}
			// Random senders: fire-and-forget bursts.
			for i, x := range edges {
				x, i := x, i
				burst := 1 + rng.Intn(5)
				delay := Duration(rng.Intn(50)) * Microsecond
				g.Shard(x.Src()).Go(fmt.Sprintf("tx%d", i), func(p *Proc) {
					p.Wait(delay)
					for b := 0; b < burst; b++ {
						x.Send(p, b)
						p.Wait(Duration(1+b) * Microsecond)
					}
				})
				// Matching drainer so nothing deadlocks.
				g.Shard(x.Dst()).Serve(fmt.Sprintf("rx%d", i), x.Inbox(), func(p *Proc, _ interface{}) {
					p.Kernel().Count("rx", 1)
				})
			}
			// Random timer load per shard.
			for s := 0; s < n; s++ {
				ticks := 10 + rng.Intn(40)
				step := Duration(1+rng.Intn(9)) * Microsecond
				k := g.Shard(s)
				k.Go(fmt.Sprintf("timer%d", s), func(p *Proc) {
					for j := 0; j < ticks; j++ {
						p.Wait(step)
						k.Count("ticks", 1)
					}
				})
			}
			g.Run(0)
			return g.Stats()
		}
		base := build(1)
		for _, w := range []int{2, 7} {
			if s := build(w); !reflect.DeepEqual(s, base) {
				t.Errorf("trial %d: workers=%d stats diverge:\n  got  %+v\n  want %+v", trial, w, s, base)
			}
		}
	}
}

// TestShardNoEdges: a group with no cross-shard edges runs every shard
// to completion in one unbounded window.
func TestShardNoEdges(t *testing.T) {
	g := NewShardGroup(3)
	g.SetWorkers(3)
	for i := 0; i < 3; i++ {
		k := g.Shard(i)
		k.Go("t", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Wait(Microsecond)
				k.Count("ticks", 1)
			}
		})
	}
	g.Run(0)
	s := g.Stats()
	if s.Counters["ticks"] != 30 {
		t.Errorf("ticks = %d, want 30", s.Counters["ticks"])
	}
	if s.Windows != 1 {
		t.Errorf("windows = %d, want 1 (unbounded)", s.Windows)
	}
}

// BenchmarkShardWindow measures the barrier overhead: a 4-shard ring at
// 1 worker against the same model on one monolithic kernel gives the
// cost of windowing without parallel hardware.
func BenchmarkShardWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewShardGroup(4)
		buildRing(g, 8, 5*Microsecond)
		g.Run(0)
	}
}

// TestShardBarrierAllocsFlat: a barrier with no cross-shard traffic
// allocates nothing, so a run of 1,000 such windows allocates no more
// than one of 10, at one worker and at two. One message crosses first,
// so the merge's scratch buffers are in use.
func TestShardBarrierAllocsFlat(t *testing.T) {
	run := func(workers, windows int) float64 {
		return testing.AllocsPerRun(5, func() {
			g := NewShardGroup(2)
			g.SetWorkers(workers)
			const lat = 5 * Microsecond
			x := g.Connect(0, 1, "x", lat, 1)
			g.Connect(1, 0, "idle", lat, 1)
			g.Shard(0).Go("send", func(p *Proc) { x.Send(p, struct{}{}) })
			g.Shard(1).Go("recv", func(p *Proc) { x.Recv(p) })
			for s := 0; s < 2; s++ {
				g.Shard(s).Go("tick", func(p *Proc) {
					p.Wait(2 * lat)
					for i := 0; i < windows; i++ {
						p.Wait(lat)
					}
				})
			}
			g.Run(0)
			if got := g.Stats().Windows; got < int64(windows) {
				t.Fatalf("%d windows, want at least %d", got, windows)
			}
		})
	}
	for _, workers := range []int{1, 2} {
		if few, many := run(workers, 10), run(workers, 1000); many > few {
			t.Errorf("workers=%d: %v allocations at 1,000 windows, %v at 10", workers, many, few)
		}
	}
}

// TestXChanSize pins an edge at 64 bytes on 64-bit hosts: the 12-cube
// registers 38,399 of them.
func TestXChanSize(t *testing.T) {
	if size := unsafe.Sizeof(XChan{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 64 {
		t.Errorf("XChan is %d bytes, want 64", size)
	}
}

// BenchmarkShardBarrier times one round trip of a two-shard ping-pong
// among idle edges that never carry a value. Each round trip crosses
// two barriers, whose cost should follow the traffic, not the edges.
func BenchmarkShardBarrier(b *testing.B) {
	for _, idle := range []int{10, 10000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			g := NewShardGroup(2)
			const lat = 5 * Microsecond
			for i := 0; i < idle; i++ {
				g.Connect(i%2, 1-i%2, "idle", lat, 1)
			}
			ping := g.Connect(0, 1, "ping", lat, 1)
			pong := g.Connect(1, 0, "pong", lat, 1)
			n := b.N
			g.Shard(0).Go("ping", func(p *Proc) {
				for i := 0; i < n; i++ {
					ping.Send(p, struct{}{})
					pong.Recv(p)
				}
			})
			g.Shard(1).Go("pong", func(p *Proc) {
				for i := 0; i < n; i++ {
					pong.Send(p, ping.Recv(p))
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			g.Run(0)
		})
	}
}
