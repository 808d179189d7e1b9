package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// startFunc starts a receive-loop daemon on k: Kernel.Serve, or the
// GoDaemon loop that Serve stands for.
type startFunc func(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc

func viaServe(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc {
	return k.Serve(name, ch, handle)
}

func viaLoop(k *Kernel, name string, ch *Chan, handle func(p *Proc, v interface{})) *Proc {
	return k.GoDaemon(name, func(p *Proc) {
		for {
			handle(p, ch.Recv(p))
		}
	})
}

// simRun is a kernel or a shard group.
type simRun interface {
	Run(horizon Duration) Time
	Stats() Stats
}

// serveScript builds one simulation with start, recording what its
// handlers and hooks see through log.
type serveScript func(start startFunc, log func(format string, args ...interface{})) simRun

// serveTrace is what one run of a script leaves behind.
type serveTrace struct {
	log      []string
	stats    Stats
	panicked interface{}
}

func runServeScript(script serveScript, start startFunc) (tr serveTrace) {
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

// logHandler logs every value it handles with its instant.
func logHandler(log func(string, ...interface{})) func(p *Proc, v interface{}) {
	return func(p *Proc, v interface{}) { log("%v %s got %v", p.Now(), p.Name(), v) }
}

// TestServeMatchesRecvLoop runs each script once with Serve and once with
// the GoDaemon receive loop it replaces: the handled values, their order
// and instants, the exit hooks, a re-raised panic and every Stats field
// must agree.
func TestServeMatchesRecvLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		script serveScript
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
			want := runServeScript(c.script, viaLoop)
			got := runServeScript(c.script, viaServe)
			if len(want.log) == 0 {
				t.Fatal("the script handled nothing")
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("Serve log:\n%q\nrecv loop log:\n%q", got.log, want.log)
			}
			if fmt.Sprint(got.panicked) != fmt.Sprint(want.panicked) {
				t.Errorf("Serve panicked with %v, recv loop with %v", got.panicked, want.panicked)
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("Serve stats:\n%+v\nrecv loop stats:\n%+v", got.stats, want.stats)
			}
		})
	}
}

// TestIdleServeHoldsNoGoroutine: a thousand Serve processes that each
// handled a value and went idle leave no goroutine behind, where the same
// daemons written as GoDaemon receive loops hold one each.
func TestIdleServeHoldsNoGoroutine(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		name  string
		start startFunc
		held  int
	}{{"Serve", viaServe, 0}, {"GoDaemon", viaLoop, n}} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			handled := 0
			for i := 0; i < n; i++ {
				ch := NewChan(k, "in", 1)
				c.start(k, "srv", ch, func(p *Proc, v interface{}) {
					p.Wait(Nanosecond)
					handled++
				})
				k.Go("feed", func(p *Proc) {
					p.Wait(Nanosecond)
					ch.Send(p, i)
				})
			}
			k.Run(0)
			if handled != n {
				t.Fatalf("handled %d values, want %d", handled, n)
			}
			if c.held == 0 {
				waitGoroutines(t, base)
			} else if held := runtime.NumGoroutine() - base; held < c.held {
				t.Fatalf("%d goroutines held, want at least %d", held, c.held)
			}
			k.teardown() // unwind the GoDaemon loops
			waitGoroutines(t, base)
			if s := k.Stats(); s.Finished != s.Spawned {
				t.Fatalf("teardown finished %d of %d processes", s.Finished, s.Spawned)
			}
		})
	}
}
