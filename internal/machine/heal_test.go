package machine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tseries/internal/fault"
	"tseries/internal/sim"
)

// bootMarkWord holds each board's boot identity (1000 + node id) in the
// reseed test: seeded before the run, never written by the body.
const bootMarkWord = 0x100

// TestHealReseedsSpareFromTornBootCheckpoint crashes a board of a
// one-module machine while the boot checkpoint is still streaming, so
// no snapshot ever reaches the disk. Recovery must remap the dead
// board's image onto the module's spare and seed the spare from the
// corpse's static RAM: the spare then carries the corpse's boot image,
// the remap is counted, and every image's body finds its own boot mark.
func TestHealReseedsSpareFromTornBootCheckpoint(t *testing.T) {
	m, err := NewAuto(context.Background(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(m)
	if err := sv.Heal(1); err != nil {
		t.Fatal(err)
	}
	const corpse = 3
	m.ArmFaults(&fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 2 * sim.Second, Kind: fault.Crash, Node: corpse},
	}}, sv)
	for id, nd := range m.Nodes {
		nd.Mem.PokeWord(bootMarkWord, uint32(1000+id))
	}

	var runErr error
	m.K.Go("heal/supervise", func(p *sim.Proc) {
		runErr = sv.Run(p, func(bp *sim.Proc, img int) error {
			mark, err := sv.NodeOf(img).Mem.ReadWord(bp, bootMarkWord)
			if err != nil {
				return err
			}
			if mark != uint32(1000+img) {
				return fmt.Errorf("image %d found boot mark %d", img, mark)
			}
			return nil
		})
	})
	m.Run(0)
	if runErr != nil {
		t.Fatalf("healed run failed: %v\nheal log:\n%s", runErr, strings.Join(sv.Events, "\n"))
	}
	if sv.Remaps != 1 {
		t.Fatalf("Remaps = %d, want 1\nheal log:\n%s", sv.Remaps, strings.Join(sv.Events, "\n"))
	}
	if got := m.SimStats().Counters["heal.remap_count"]; got != 1 {
		t.Fatalf("heal.remap_count = %d, want 1", got)
	}
	spare := sv.PhysOf(corpse)
	if spare == corpse || spare < 0 {
		t.Fatalf("image %d still on board %d", corpse, spare)
	}
	if got := m.Nodes[spare].Mem.PeekWord(bootMarkWord); got != 1000+corpse {
		t.Fatalf("spare board %d carries boot mark %d, want the corpse's %d", spare, got, 1000+corpse)
	}
	if sv.lastSnaps == nil {
		t.Fatal("boot checkpoint never completed after the heal")
	}
}

// TestHealRejectsSpareCountOutOfRange: a module must keep at least one
// slot carrying an image, so Heal takes 0..7 spares per module.
func TestHealRejectsSpareCountOutOfRange(t *testing.T) {
	for _, spares := range []int{-1, 8} {
		if err := NewSupervisor(newMachine(t, 3)).Heal(spares); err == nil {
			t.Fatalf("Heal(%d) accepted", spares)
		}
	}
}
