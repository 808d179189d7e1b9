package machine

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"tseries/internal/leakcheck"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// TestLossyLinkScan drives the per-board lossy scan: a board reads only
// its own nodes' links, flags a channel whose retransmits climbed past
// the budget since its last pass exactly once, and module 0's pass
// records what the other boards found.
func TestLossyLinkScan(t *testing.T) {
	m := newMachine(t, 4)
	d := newDetector(m, NewSupervisor(m))
	mod0, mod1 := m.Modules[0], m.Modules[1]

	// A retransmit burst past the budget marks the channel lossy on its
	// own board; the verdict is made once, not re-raised every pass.
	m.Nodes[1].Links[0].Retransmits += int64(LossyRetransmits) + 12
	if got := d.scanLossy(mod1); len(got) != 0 {
		t.Fatalf("module 1 flagged module 0's link: %v", got)
	}
	if got := d.scanLossy(mod0); len(got) != 1 || got[0] != "node1/link0" {
		t.Fatalf("module 0 found %v, want [node1/link0]", got)
	}
	if got := d.scanLossy(mod0); len(got) != 0 {
		t.Fatalf("quiet pass re-flagged: %v", got)
	}

	// Sub-budget drizzle on another channel is retransmit business as
	// usual, not a lossy verdict.
	m.Nodes[2].Links[1].Retransmits += int64(LossyRetransmits) - 2
	if got := d.scanLossy(mod0); len(got) != 0 {
		t.Fatalf("sub-budget channel flagged: %v", got)
	}

	// A burst on module 1's board travels in its verdict and lands in
	// module 0's record, after module 0's own find.
	m.Nodes[0].Links[1].Retransmits += 3 * int64(LossyRetransmits)
	m.K.Go("ctl", func(p *sim.Proc) {
		m.Group.Global(p, func(sim.Time) { d.Start() })
		p.Wait(DetectInterval / 2)
		m.Group.Global(p, func(sim.Time) { m.Nodes[9].Links[2].Retransmits += 2 * int64(LossyRetransmits) })
		p.Wait(2 * DetectInterval)
		m.Group.Global(p, func(sim.Time) { d.Stop() })
	})
	m.Run(0)
	if want := []string{"node0/link1", "node9/link2"}; fmt.Sprint(d.LossyLinks) != fmt.Sprint(want) {
		t.Fatalf("LossyLinks = %v, want %v", d.LossyLinks, want)
	}
	if got := m.SimStats().Counters["heal.lossy_links"]; got != 2 {
		t.Fatalf("heal.lossy_links = %d, want 2", got)
	}
}

// TestPhiFloorsTheGap: beats that queued behind a congested thread
// arrive in a burst, so their arrival gaps (here a 7.95 ms EWMA) say
// nothing about how often the node beats. 79 ms of silence is less than
// one 100 ms beat period, not ten gaps: phi 0.79, not 9.9.
func TestPhiFloorsTheGap(t *testing.T) {
	m := newMachine(t, 2)
	d := newDetector(m, NewSupervisor(m))
	last := sim.Time(10 * sim.Second)
	s := module.SlotHealth{Beats: 100, LastBeat: last, EwmaGap: 7950 * sim.Microsecond}
	if got := d.phi(last.Add(79*sim.Millisecond), s); math.Abs(got-0.79) > 1e-9 {
		t.Fatalf("phi = %g after 79ms of silence, want 0.79", got)
	}
	// A slot that really beats slower than the period keeps its own gap.
	s.EwmaGap = 400 * sim.Millisecond
	if got := d.phi(last.Add(79*sim.Millisecond), s); math.Abs(got-0.1975) > 1e-9 {
		t.Fatalf("phi = %g against a 400ms gap, want 0.1975", got)
	}
}

func TestDetectorSuspendResume(t *testing.T) {
	m := newMachine(t, 2)
	k := m.K
	d := newDetector(m, NewSupervisor(m))

	// Suspension nests: two Suspends need two Resumes before the floor
	// resets and confirmations clear.
	d.confirmed[3] = true
	d.Suspend()
	d.Suspend()
	d.Resume()
	if len(d.confirmed) != 1 {
		t.Fatal("inner Resume cleared state while still suspended")
	}
	k.Go("tick", func(p *sim.Proc) { p.Wait(sim.Second) })
	m.Run(0)
	d.Resume()
	if d.floor != k.Now() {
		t.Fatalf("floor = %v, want reset to now (%v)", d.floor, k.Now())
	}
	if len(d.confirmed) != 0 {
		t.Fatal("outer Resume kept stale confirmations")
	}
	// A spurious extra Resume must not underflow the depth.
	d.Resume()
	if d.susp != 0 {
		t.Fatalf("suspension depth = %d after extra Resume", d.susp)
	}
}

// TestDetectorConfirmsCutPointOnly drives one evaluation pass against a
// hand-built silence pattern: with slots 1 AND 3 of a module gone quiet,
// only the highest (the cut point, slot 3) may be condemned — the thread
// flows one way, so slot 1's silence proves nothing while 3 is in the
// chain.
func TestDetectorConfirmsCutPointOnly(t *testing.T) {
	m := newMachine(t, 2)
	k := m.K
	sv := NewSupervisor(m)
	d := newDetector(m, sv)

	// Heartbeats and detection on; crash node 3 silently mid-run, then
	// let the evaluation daemon notice. The controller stops everything
	// so the kernel can drain.
	var verdict error
	k.Go("ctl", func(p *sim.Proc) {
		d.Start()
		p.Wait(2 * sim.Second)
		m.Nodes[3].Crash()
		which, v := sim.Select(p, sv.alarm.ch, sim.NewChan(k, "never", 1))
		if which == 0 {
			verdict = v.(error)
		}
		d.Stop()
	})
	m.Run(0)
	dd, ok := verdict.(*DetectedDeath)
	if !ok {
		t.Fatalf("alarm = %v, want DetectedDeath", verdict)
	}
	if dd.Node != 3 {
		t.Fatalf("condemned node %d, want 3 (the cut point)", dd.Node)
	}
	if dd.Silence <= 0 || dd.Silence > 20*HeartbeatInterval {
		t.Fatalf("detection latency %v implausible", dd.Silence)
	}
	if got := k.Stats().Counters["heal.detect_events"]; got != 1 {
		t.Fatalf("heal.detect_events = %d, want exactly the cut point", got)
	}
}

// TestDroppedMachineIsCollected: a machine dropped with its detector,
// heartbeats and board judges still running holds no goroutine and is
// garbage. Each of those daemons is an Every process, idle between
// ticks. The machine is a cycle, so a finalizer on it need not run; the
// one watched here sits on a leaf that only the detector's exit hook
// reaches.
func TestDroppedMachineIsCollected(t *testing.T) {
	base := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		m := newMachine(t, 4)
		sv := NewSupervisor(m)
		if err := sv.Heal(0); err != nil {
			t.Fatal(err)
		}
		m.K.Go("start", func(p *sim.Proc) {
			m.Group.Global(p, func(sim.Time) { sv.det.Start() })
		})
		m.Run(2 * sim.Second)
		if len(sv.det.procs) != 2 || sv.det.procs[0].Done() {
			t.Fatal("the detector is not running")
		}
		leaf := new([64]byte)
		runtime.SetFinalizer(leaf, func(*[64]byte) { close(collected) })
		sv.det.procs[0].OnExit(func() { leaf[0]++ })
	}()
	if err := leakcheck.Wait(base); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the dropped machine was never collected")
		}
	}
}

// TestVerdictsReachModuleZeroAtScale starts the detector on the machines
// of dims 10 and 12 (127 and 511 boards besides module 0's): every
// board's verdict must reach module 0 within two detect intervals, and a
// silent crash in a remote module must be confirmed against the node
// that died.
func TestVerdictsReachModuleZeroAtScale(t *testing.T) {
	for _, c := range []struct{ dim, victim int }{{10, 9}, {12, 4095}} {
		t.Run(fmt.Sprintf("dim%d", c.dim), func(t *testing.T) {
			m := newMachine(t, c.dim)
			sv := NewSupervisor(m)
			d := newDetector(m, sv)
			m.K.Go("start", func(p *sim.Proc) {
				m.Group.Global(p, func(sim.Time) { d.Start() })
			})
			// Every board judges one interval after Start, and module 0's
			// second pass takes the verdicts: stop just before it.
			m.Run(2*DetectInterval - sim.Nanosecond)
			heard := make([]bool, len(m.Modules))
			for {
				x, ok := d.verdicts.ch.TryRecv()
				if !ok {
					break
				}
				v := x.(verdict)
				if v.mod < 1 || heard[v.mod] || v.at != d.floor.Add(DetectInterval) || v.cut >= 0 {
					t.Fatalf("unexpected verdict %+v (Start at %v)", v, d.floor)
				}
				heard[v.mod] = true
			}
			for mod, ok := range heard[1:] {
				if !ok {
					t.Fatalf("module %d's verdict had not reached module 0 within two detect intervals", mod+1)
				}
			}

			var alarm error
			m.K.Go("ctl", func(p *sim.Proc) {
				m.Group.Global(p, func(sim.Time) { m.Nodes[c.victim].Crash() })
				alarm = sv.alarm.ch.Recv(p).(error)
				m.Group.Global(p, func(sim.Time) { d.Stop() })
			})
			m.Run(10 * sim.Second)
			if dd, ok := alarm.(*DetectedDeath); !ok || dd.Node != c.victim {
				t.Fatalf("alarm = %v, want node %d confirmed dead", alarm, c.victim)
			}
		})
	}
}
