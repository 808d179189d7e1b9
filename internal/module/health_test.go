package module

import (
	"encoding/binary"
	"testing"

	"tseries/internal/sim"
)

func beatFrame(slot int, prog uint32) []byte {
	f := make([]byte, 6)
	f[0] = kindBeat
	f[1] = byte(slot)
	binary.LittleEndian.PutUint32(f[2:6], prog)
	return f
}

func TestNoteBeatLedger(t *testing.T) {
	_, m := buildModule(t, 4)

	// First beat at the boot progress value: counted, but not
	// "advanced" — the word has not been seen to CHANGE yet.
	m.noteBeat(sim.Time(100*sim.Millisecond), beatFrame(1, 0))
	s := m.health[1]
	if s.Beats != 1 || s.Progress != 0 || s.Advanced {
		t.Fatalf("after first beat: %+v", s)
	}
	if s.LastBeat != sim.Time(100*sim.Millisecond) || s.LastAdvance != s.LastBeat {
		t.Fatalf("first-beat times wrong: %+v", s)
	}

	// Second beat, same progress: the gap seeds the EWMA; no advance.
	m.noteBeat(sim.Time(200*sim.Millisecond), beatFrame(1, 0))
	s = m.health[1]
	if s.EwmaGap != 100*sim.Millisecond {
		t.Fatalf("EWMA seed = %v, want 100ms", s.EwmaGap)
	}
	if s.Advanced || s.LastAdvance != sim.Time(100*sim.Millisecond) {
		t.Fatalf("frozen progress advanced the ledger: %+v", s)
	}

	// Third beat after a longer gap, progress bumped: EWMA smooths
	// 7:1 toward history, and the advance is recorded.
	m.noteBeat(sim.Time(500*sim.Millisecond), beatFrame(1, 6))
	s = m.health[1]
	want := (7*100*sim.Millisecond + 300*sim.Millisecond) / 8
	if s.EwmaGap != want {
		t.Fatalf("EWMA = %v, want %v", s.EwmaGap, want)
	}
	if !s.Advanced || s.LastAdvance != sim.Time(500*sim.Millisecond) || s.Progress != 6 {
		t.Fatalf("advance not recorded: %+v", s)
	}

	// Malformed frames change nothing: short, and out-of-range slot.
	before := m.health[1]
	m.noteBeat(sim.Time(600*sim.Millisecond), []byte{kindBeat, 1})
	m.noteBeat(sim.Time(600*sim.Millisecond), beatFrame(9, 1))
	if m.health[1] != before {
		t.Fatal("malformed beat mutated the ledger")
	}
}

// TestSpareAndBypassFlags: the flags the detector reads beside the
// ledger — a cold spare carries no image and stays in the thread, a
// bypassed corpse is out of the thread, a working slot is neither.
func TestSpareAndBypassFlags(t *testing.T) {
	_, m := buildModule(t, 4)
	if err := m.SetSpare(3); err != nil {
		t.Fatal(err)
	}
	m.Nodes[1].Crash()
	if err := m.BypassSlot(1); err != nil {
		t.Fatal(err)
	}
	if m.ImageOf(3) >= 0 || m.Bypassed(3) {
		t.Fatalf("slot 3: image %d, bypassed %v; want a spare", m.ImageOf(3), m.Bypassed(3))
	}
	if !m.Bypassed(1) {
		t.Fatal("slot 1 not bypassed")
	}
	if m.ImageOf(0) != 0 || m.Bypassed(0) {
		t.Fatalf("slot 0: image %d, bypassed %v; want a working slot", m.ImageOf(0), m.Bypassed(0))
	}
	if got := m.Spares(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("spares = %v, want [3]: a bypassed slot is no spare", got)
	}
}

func TestHeartbeatsDeliverAndStop(t *testing.T) {
	k, m := buildModule(t, 4)
	m.StartHeartbeats(100 * sim.Millisecond)
	k.Go("ctl", func(p *sim.Proc) {
		p.Wait(sim.Second)
		m.StopHeartbeats()
	})
	end := k.Run(0)
	// StopHeartbeats must let the kernel drain: the run ends just after
	// the controller's one-second mark, not never.
	if sim.Duration(end) > 2*sim.Second {
		t.Fatalf("run dragged to %v after StopHeartbeats", sim.Duration(end))
	}
	for i := range m.Nodes {
		if s := m.Health(i); s.Beats < 5 {
			t.Fatalf("slot %d logged only %d beats in 1 s at 100 ms", i, s.Beats)
		}
	}
	// Restart after stop must work (the guard resets).
	m.StartHeartbeats(100 * sim.Millisecond)
	if len(m.hbProcs) == 0 {
		t.Fatal("restart after StopHeartbeats spawned nothing")
	}
	m.StopHeartbeats()
}

func TestSpareRemapInvariants(t *testing.T) {
	_, m := buildModule(t, 4)
	if err := m.SetSpare(3); err != nil {
		t.Fatal(err)
	}
	if got := m.Spares(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("spares = %v, want [3]", got)
	}
	if m.ImageOf(3) != -1 || m.SlotOfImage(3) != -1 {
		t.Fatal("spare still claims an image")
	}

	// A working slot dies: bypass orphans its image, then a spare
	// adopts it.
	img := m.ImageOf(1)
	if err := m.BypassSlot(1); err != nil {
		t.Fatal(err)
	}
	if !m.Bypassed(1) || m.ImageOf(1) != -1 {
		t.Fatal("bypass did not retire the slot")
	}
	if err := m.BypassSlot(1); err != nil {
		t.Fatalf("bypass not idempotent: %v", err)
	}
	if err := m.AdoptImage(3, img); err != nil {
		t.Fatal(err)
	}
	if m.SlotOfImage(img) != 3 || m.ImageOf(3) != img {
		t.Fatal("adoption bookkeeping wrong")
	}
	if got := m.Spares(); len(got) != 0 {
		t.Fatalf("spares = %v after adoption, want none", got)
	}

	// The invariants: no adopting onto a bypassed or occupied slot, no
	// double-homing a live image, no reserving spares mid-run.
	if err := m.AdoptImage(1, 9); err == nil {
		t.Fatal("adopted onto a bypassed slot")
	}
	if err := m.AdoptImage(3, 2); err == nil {
		t.Fatal("adopted onto an occupied slot")
	}
	if err := m.AdoptImage(0, 0); err == nil {
		t.Fatal("image 0 homed twice")
	}
	m.SnapshotsTaken++
	if err := m.SetSpare(2); err == nil {
		t.Fatal("reserved a spare after a snapshot exists")
	}

	// activeSlots excludes the corpse, includes the adoptive home.
	var phys []int
	for _, as := range m.activeSlots() {
		phys = append(phys, as.phys)
		if as.phys == 3 && as.img != img {
			t.Fatalf("slot 3 carries image %d, want %d", as.img, img)
		}
	}
	if len(phys) != 3 {
		t.Fatalf("active slots %v, want 3 of them", phys)
	}
}
