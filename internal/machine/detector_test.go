package machine

import (
	"runtime"
	"testing"
	"time"

	"tseries/internal/leakcheck"
	"tseries/internal/sim"
)

func TestLossyLinkScan(t *testing.T) {
	m := newMachine(t, 2)
	k := m.K
	sv := NewSupervisor(m)
	d := NewDetector(m, sv)

	// A retransmit burst past the budget marks the channel lossy; the
	// verdict is recorded once, not re-raised every pass.
	m.Nodes[1].Links[0].Retransmits += int64(LossyRetransmits) + 12
	d.scanLossy()
	if len(d.LossyLinks) != 1 || d.LossyLinks[0] != "node1/link0" {
		t.Fatalf("LossyLinks = %v, want [node1/link0]", d.LossyLinks)
	}
	if got := k.Stats().Counters["heal.lossy_links"]; got != 1 {
		t.Fatalf("heal.lossy_links = %d, want 1", got)
	}
	d.scanLossy()
	if len(d.LossyLinks) != 1 {
		t.Fatalf("quiet pass re-flagged: %v", d.LossyLinks)
	}

	// Sub-budget drizzle on another channel is retransmit business as
	// usual, not a lossy verdict.
	m.Nodes[2].Links[1].Retransmits += int64(LossyRetransmits) - 2
	d.scanLossy()
	if len(d.LossyLinks) != 1 {
		t.Fatalf("sub-budget channel flagged: %v", d.LossyLinks)
	}

	// A second burst on a new channel accumulates.
	m.Nodes[0].Links[1].Retransmits += 3 * int64(LossyRetransmits)
	d.scanLossy()
	if len(d.LossyLinks) != 2 || d.LossyLinks[1] != "node0/link1" {
		t.Fatalf("LossyLinks = %v, want second entry node0/link1", d.LossyLinks)
	}
}

func TestDetectorSuspendResume(t *testing.T) {
	m := newMachine(t, 2)
	k := m.K
	sv := NewSupervisor(m)
	d := NewDetector(m, sv)

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
	d := NewDetector(m, sv)
	r := m.Spec.Recovery

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
	if dd.Silence <= 0 || dd.Silence > 20*r.HeartbeatInterval {
		t.Fatalf("detection latency %v implausible", dd.Silence)
	}
	if got := k.Stats().Counters["heal.detect_events"]; got != 1 {
		t.Fatalf("heal.detect_events = %d, want exactly the cut point", got)
	}
}

// TestDroppedMachineIsCollected: a machine dropped with its detector,
// heartbeats and health publishers still running holds no goroutine and
// is garbage. Each of those daemons is an Every process, idle between
// ticks. The machine is a cycle, so a finalizer on it need not run; the
// one watched here sits on a leaf that only the detector's exit hook
// reaches.
func TestDroppedMachineIsCollected(t *testing.T) {
	base := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		m := newMachine(t, 4)
		h, err := NewHealer(m, NewSupervisor(m))
		if err != nil {
			t.Fatal(err)
		}
		m.K.Go("start", func(p *sim.Proc) {
			m.Group.Global(p, func(sim.Time) { h.Det.Start() })
		})
		m.Run(2 * sim.Second)
		if h.Det.proc == nil || h.Det.proc.Done() {
			t.Fatal("the detector is not running")
		}
		leaf := new([64]byte)
		runtime.SetFinalizer(leaf, func(*[64]byte) { close(collected) })
		h.Det.proc.OnExit(func() { leaf[0]++ })
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
