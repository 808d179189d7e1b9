package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// startFunc starts a receive-loop daemon on k: Kernel.Serve, or the
// goroutine loop that Serve stands for.
type startFunc func(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc

func viaServe(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc {
	return k.Serve(name, ch, handle)
}

func viaLoop(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc {
	return k.spawn(name, func(p *Proc) {
		for {
			handle(p, ch.Recv(p))
		}
	}, true)
}

// everyFunc starts a timed daemon on k: Kernel.Every, or the goroutine
// loop that Every stands for.
type everyFunc func(k *Kernel, name string, d Duration, tick func(p *Proc)) *Proc

func viaEvery(k *Kernel, name string, d Duration, tick func(p *Proc)) *Proc {
	return k.Every(name, d, tick)
}

func viaTimedLoop(k *Kernel, name string, d Duration, tick func(p *Proc)) *Proc {
	return k.spawn(name, func(p *Proc) {
		for {
			p.Wait(d)
			tick(p)
		}
	}, true)
}

// simRun is a kernel or a shard group.
type simRun interface {
	Run(horizon Duration) Time
	Stats() Stats
}

// daemonScript builds one simulation whose daemons start through start,
// recording what its handlers, ticks and hooks see through log.
type daemonScript[S any] func(start S, log func(format string, args ...interface{})) simRun

// daemonTrace is what one run of a script leaves behind.
type daemonTrace struct {
	log      []string
	stats    Stats
	panicked interface{}
}

func runScript[S any](script daemonScript[S], start S) (tr daemonTrace) {
	log := func(format string, args ...interface{}) {
		tr.log = append(tr.log, fmt.Sprintf(format, args...))
	}
	s := script(start, log)
	func() {
		defer func() { tr.panicked = recover() }()
		s.Run(0)
	}()
	tr.stats = s.Stats()
	return tr
}

// sameTrace requires a daemon and its goroutine loop to leave the same
// log, panic and Stats.
func sameTrace(t *testing.T, daemon string, got, want daemonTrace) {
	t.Helper()
	if len(want.log) == 0 {
		t.Fatal("the script logged nothing")
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Errorf("%s log:\n%q\nloop log:\n%q", daemon, got.log, want.log)
	}
	if fmt.Sprint(got.panicked) != fmt.Sprint(want.panicked) {
		t.Errorf("%s panicked with %v, loop with %v", daemon, got.panicked, want.panicked)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s stats:\n%+v\nloop stats:\n%+v", daemon, got.stats, want.stats)
	}
}

// logHandler logs every value it handles with its instant.
func logHandler(log func(string, ...interface{})) func(p *Proc, v interface{}) {
	return func(p *Proc, v interface{}) { log("%v %s got %v", p.Now(), p.Name(), v) }
}

// TestServeMatchesRecvLoop runs each script once with Serve and once with
// the goroutine receive loop it replaces: the handled values, their order
// and instants, the exit hooks, a re-raised panic and every Stats field
// must agree.
func TestServeMatchesRecvLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		script daemonScript[startFunc]
	}{
		{"queued before the first dispatch", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			ch := NewChan(k, "in", 8)
			ch.push(1)
			ch.push(2)
			k.Go("feeder", func(p *Proc) {
				for i := 3; i <= 5; i++ {
					ch.Send(p, i)
				}
				p.Wait(Microsecond)
				ch.Send(p, 6)
			})
			start(k, "srv", ch, logHandler(log))
			return k
		}},
		{"handler blocks in Wait, Use and a full Send", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			in := NewChan(k, "in", 0)
			out := NewChan(k, "out", 1)
			wire := NewResource(k, "wire", 1)
			for i := 0; i < 3; i++ {
				i := i
				k.Go("sender", func(p *Proc) {
					for j := 0; j < 4; j++ {
						in.Send(p, 10*i+j)
						p.Wait(Duration(i+1) * Nanosecond)
					}
				})
			}
			start(k, "srv", in, func(p *Proc, v interface{}) {
				log("%v take %v", p.Now(), v)
				wire.Use(p, 3*Nanosecond)
				out.Send(p, v)
			})
			k.Go("drain", func(p *Proc) {
				for i := 0; i < 12; i++ {
					p.Wait(7 * Nanosecond)
					log("%v drained %v", p.Now(), out.Recv(p))
				}
			})
			return k
		}},
		{"servers feeding each other", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			a, b := NewChan(k, "a", 2), NewChan(k, "b", 0)
			start(k, "ping", a, func(p *Proc, v interface{}) {
				log("%v ping %v", p.Now(), v)
				if n := v.(int); n < 20 {
					b.Send(p, n+1)
				}
			})
			start(k, "pong", b, func(p *Proc, v interface{}) {
				log("%v pong %v", p.Now(), v)
				p.Wait(Duration(v.(int)%3) * Nanosecond)
				a.Send(p, v.(int)+1)
			})
			k.Go("kick", func(p *Proc) {
				a.Send(p, 0)
				p.Wait(2 * Nanosecond)
				a.Send(p, 100)
			})
			return k
		}},
		{"kill before the first start, while idle and with a value delivered", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			var srvs [3]*Proc
			var chs [3]*Chan
			for i := range srvs {
				i := i
				chs[i] = NewChan(k, "in", 4)
				srvs[i] = start(k, fmt.Sprint("srv", i), chs[i], logHandler(log))
				srvs[i].OnExit(func() { log("%v srv%d exit", k.Now(), i) })
			}
			srvs[0].Kill()
			k.Go("driver", func(p *Proc) {
				chs[1].Send(p, 1)
				chs[2].Send(p, 1)
				p.Wait(10 * Nanosecond)
				srvs[1].Kill() // idle
				chs[2].Send(p, 2)
				srvs[2].Kill() // value delivered, resume pending
				p.Wait(10 * Nanosecond)
				chs[1].Send(p, 3) // buffered for a finished server
			})
			return k
		}},
		{"kill inside the handler", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			ch := NewChan(k, "in", 4)
			srv := start(k, "srv", ch, func(p *Proc, v interface{}) {
				log("%v start %v", p.Now(), v)
				p.Wait(100 * Nanosecond)
				log("%v end %v", p.Now(), v)
			})
			srv.OnExit(func() { log("%v exit", k.Now()) })
			k.Go("driver", func(p *Proc) {
				ch.Send(p, 1)
				ch.Send(p, 2)
				p.Wait(150 * Nanosecond)
				srv.Kill()
			})
			return k
		}},
		{"context teardown with idle servers", func(start startFunc, log func(string, ...interface{})) simRun {
			ctx, cancel := context.WithCancel(context.Background())
			k := NewKernelCtx(ctx)
			chs := make([]*Chan, 4)
			for i := range chs {
				i := i
				chs[i] = NewChan(k, "in", 1)
				start(k, fmt.Sprint("srv", i), chs[i], logHandler(log)).OnExit(func() {
					log("%v srv%d exit", k.Now(), i)
				})
			}
			k.Go("ticker", func(p *Proc) {
				for i := 0; ; i++ {
					chs[i%len(chs)].Send(p, i)
					p.Wait(Nanosecond)
					if i == 50 {
						cancel()
					}
				}
			})
			return k
		}},
		{"handler panic", func(start startFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			ch := NewChan(k, "in", 0)
			idle := NewChan(k, "idle", 0)
			start(k, "idler", idle, logHandler(log)).OnExit(func() { log("%v idler exit", k.Now()) })
			start(k, "srv", ch, func(p *Proc, v interface{}) {
				log("%v got %v", p.Now(), v)
				if v == 3 {
					panic("boom 3")
				}
			})
			k.Go("driver", func(p *Proc) {
				for i := 0; i < 6; i++ {
					ch.Send(p, i)
					p.Wait(Nanosecond)
				}
			})
			return k
		}},
		{"two shards, two workers", func(start startFunc, log func(string, ...interface{})) simRun {
			g := NewShardGroup(2)
			g.SetWorkers(2)
			x := g.Connect(0, 1, "x", 5*Nanosecond, 0)
			back := g.Connect(1, 0, "back", 5*Nanosecond, 0)
			start(g.Shard(1), "srv", x.Inbox(), func(p *Proc, v interface{}) {
				log("%v got %v", p.Now(), v)
				p.Wait(Duration(v.(int)%4) * Nanosecond)
				back.Send(p, v)
			})
			g.Shard(0).Go("driver", func(p *Proc) {
				for i := 0; i < 8; i++ {
					x.Send(p, i)
					x.Send(p, 100+i)
					back.Recv(p)
				}
			})
			return g
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sameTrace(t, "Serve", runScript(c.script, viaServe), runScript(c.script, viaLoop))
		})
	}
}

// TestEveryMatchesTimedLoop runs each script once with Every and once
// with the goroutine loop it replaces: the ticks, their instants, the
// exit hooks, a re-raised panic and every Stats field must agree.
func TestEveryMatchesTimedLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		script daemonScript[everyFunc]
	}{
		{"tick blocks in a full Send, Use and a Wait past the period", func(start everyFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			out := NewChan(k, "out", 1)
			wire := NewResource(k, "wire", 1)
			n := 0
			tk := start(k, "tick", 10*Nanosecond, func(p *Proc) {
				n++
				log("%v tick %d", p.Now(), n)
				wire.Use(p, 3*Nanosecond)
				out.Send(p, n)
				if n%4 == 0 {
					p.Wait(25 * Nanosecond)
				}
				log("%v tick %d done", p.Now(), n)
			})
			k.Go("hog", func(p *Proc) {
				for i := 0; i < 20; i++ {
					wire.Use(p, Duration(2+i%5)*Nanosecond)
					p.Wait(Nanosecond)
				}
			})
			k.Go("drain", func(p *Proc) {
				for i := 0; i < 12; i++ {
					p.Wait(17 * Nanosecond)
					log("%v drained %v", p.Now(), out.Recv(p))
				}
				tk.Kill()
			})
			return k
		}},
		{"kill before the first start, while idle, at a tick and inside the tick", func(start everyFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			var tks [5]*Proc
			for i := range tks {
				i := i
				ticks := 0
				tks[i] = start(k, fmt.Sprint("tk", i), Duration(4+i)*Nanosecond, func(p *Proc) {
					ticks++
					log("%v tk%d tick %d", p.Now(), i, ticks)
					switch {
					case i == 2:
						p.Wait(20 * Nanosecond)
						log("%v tk%d woke", p.Now(), i)
					case i == 4 && ticks == 2:
						p.Kill() // itself: unwinds at its next Wait
						log("%v tk%d killed itself", p.Now(), i)
					}
				})
				tks[i].OnExit(func() { log("%v tk%d exit", k.Now(), i) })
			}
			tks[0].Kill()
			k.After(15*Nanosecond, func() { tks[3].Kill() }) // tk3 ticks at 7 and 14
			k.After(20*Nanosecond, func() { tks[1].Kill() }) // at tk1's tick instant
			k.Go("driver", func(p *Proc) {
				p.Wait(17 * Nanosecond)
				tks[2].Kill() // inside the tick's Wait
			})
			return k
		}},
		{"context teardown with idle tickers", func(start everyFunc, log func(string, ...interface{})) simRun {
			ctx, cancel := context.WithCancel(context.Background())
			k := NewKernelCtx(ctx)
			for i := 0; i < 4; i++ {
				i := i
				start(k, fmt.Sprint("tk", i), Duration(3+i)*Nanosecond, func(p *Proc) {
					log("%v tk%d tick", p.Now(), i)
				}).OnExit(func() { log("%v tk%d exit", k.Now(), i) })
			}
			k.Go("driver", func(p *Proc) {
				for i := 0; ; i++ {
					p.Wait(Nanosecond)
					if i == 50 {
						cancel()
					}
				}
			})
			return k
		}},
		{"tick panic", func(start everyFunc, log func(string, ...interface{})) simRun {
			k := NewKernel()
			start(k, "idler", 5*Nanosecond, func(p *Proc) {
				log("%v idler tick", p.Now())
			}).OnExit(func() { log("%v idler exit", k.Now()) })
			n := 0
			start(k, "bomb", 3*Nanosecond, func(p *Proc) {
				n++
				log("%v bomb tick %d", p.Now(), n)
				if n == 4 {
					panic("boom 4")
				}
			})
			k.Go("driver", func(p *Proc) { p.Wait(100 * Nanosecond) })
			return k
		}},
		{"two shards, two workers", func(start everyFunc, log func(string, ...interface{})) simRun {
			g := NewShardGroup(2)
			g.SetWorkers(2)
			x := g.Connect(0, 1, "x", 5*Nanosecond, 0)
			back := g.Connect(1, 0, "back", 5*Nanosecond, 0)
			n := 0
			tk := start(g.Shard(0), "tick", 7*Nanosecond, func(p *Proc) {
				n++
				log("%v tick %d", p.Now(), n)
				x.Send(p, n)
			})
			g.Shard(1).Go("echo", func(p *Proc) {
				for i := 0; i < 10; i++ {
					v := x.Recv(p)
					p.Wait(Duration(v.(int)%3) * Nanosecond)
					back.Send(p, v)
				}
			})
			g.Shard(0).Go("driver", func(p *Proc) {
				for i := 0; i < 10; i++ {
					log("%v back %v", p.Now(), back.Recv(p))
				}
				tk.Kill()
			})
			return g
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sameTrace(t, "Every", runScript(c.script, viaEvery), runScript(c.script, viaTimedLoop))
		})
	}
}

// TestEveryNeedsAPositivePeriod: a zero or negative period panics.
func TestEveryNeedsAPositivePeriod(t *testing.T) {
	for _, d := range []Duration{0, -Nanosecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Every with period %v did not panic", d)
				}
			}()
			NewKernel().Every("tick", d, func(*Proc) {})
		}()
	}
}

// goroutinesIn counts the goroutines whose stack passes through the
// function fn, named as the runtime prints it.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "\n"+fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestIdleServeHoldsNoGoroutine: a thousand Serve processes that each
// handled a value, or Every processes that each ticked, and went idle
// leave no goroutine behind, where the same daemons written as goroutine
// loops hold one each. The held goroutines are counted by their loop
// function, so a goroutine of an earlier test that exits meanwhile
// does not skew the count.
func TestIdleServeHoldsNoGoroutine(t *testing.T) {
	const n = 1000
	serveOnce := func(start startFunc) func(k *Kernel, work func(p *Proc)) {
		return func(k *Kernel, work func(p *Proc)) {
			ch := NewChan(k, "in", 1)
			start(k, "srv", ch, func(p *Proc, v interface{}) { work(p) })
			k.Go("feed", func(p *Proc) {
				p.Wait(Nanosecond)
				ch.Send(p, 0)
			})
		}
	}
	tickOnce := func(start everyFunc) func(k *Kernel, work func(p *Proc)) {
		return func(k *Kernel, work func(p *Proc)) {
			start(k, "tick", 6*Nanosecond, work) // ticks at 6, then 13
		}
	}
	for _, c := range []struct {
		name  string
		start func(k *Kernel, work func(p *Proc))
		held  int
		loop  string // the function each held goroutine runs
	}{
		{"Serve", serveOnce(viaServe), 0, ""},
		{"recv loop", serveOnce(viaLoop), n, "tseries/internal/sim.viaLoop.func1"},
		{"Every", tickOnce(viaEvery), 0, ""},
		{"timed loop", tickOnce(viaTimedLoop), n, "tseries/internal/sim.viaTimedLoop.func1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			handled := 0
			for i := 0; i < n; i++ {
				c.start(k, func(p *Proc) {
					p.Wait(Nanosecond)
					handled++
				})
			}
			k.Run(10 * Nanosecond)
			if handled != n {
				t.Fatalf("%d daemons did their work, want %d", handled, n)
			}
			if c.held == 0 {
				waitGoroutines(t, base)
			} else if held := goroutinesIn(c.loop); held < c.held {
				t.Fatalf("%d goroutines held, want at least %d", held, c.held)
			}
			k.teardown() // unwind the goroutine loops
			waitGoroutines(t, base)
			if s := k.Stats(); s.Finished != s.Spawned {
				t.Fatalf("teardown finished %d of %d processes", s.Finished, s.Spawned)
			}
		})
	}
}
