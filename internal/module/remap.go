package module

import (
	"fmt"

	"tseries/internal/link"
)

// Spare-slot remapping. A module may hold back its top slots as cold
// spares: physically present, beating, but carrying no image (no
// checkpoint identity, no workload). When a working slot is confirmed
// dead, recovery re-cables the thread around the corpse (BypassSlot —
// the simulated equivalent of the bypass relays a field engineer would
// jumper) and hands its image to a spare (AdoptImage). Snapshots are
// keyed by IMAGE slot, not physical slot, so a restore after remapping
// feeds the old board's checkpoint into its new physical home with no
// disk-side renaming.

// activeSlot pairs a live physical slot with the image it carries.
type activeSlot struct{ phys, img int }

// activeSlots lists, in physical order, the slots currently carrying an
// image. Bypassed slots and cold spares are excluded.
func (m *Module) activeSlots() []activeSlot {
	out := make([]activeSlot, 0, len(m.Nodes))
	for phys, img := range m.mapped {
		if img >= 0 && !m.bypassed[phys] {
			out = append(out, activeSlot{phys: phys, img: img})
		}
	}
	return out
}

// SetSpare reserves a slot as a cold spare before it has done any work.
func (m *Module) SetSpare(slot int) error {
	if slot < 0 || slot >= len(m.Nodes) {
		return fmt.Errorf("module %d: spare slot %d out of range", m.Index, slot)
	}
	if m.SnapshotsTaken > 0 {
		return fmt.Errorf("module %d: cannot reserve spares after a snapshot exists", m.Index)
	}
	m.mapped[slot] = -1
	return nil
}

// ImageOf returns the image slot physical slot currently carries, or -1
// for a spare or bypassed slot.
func (m *Module) ImageOf(slot int) int {
	if slot < 0 || slot >= len(m.mapped) {
		return -1
	}
	return m.mapped[slot]
}

// SlotOfImage returns the physical slot currently carrying image img,
// or -1 if no slot does (the image died with no spare to adopt it).
func (m *Module) SlotOfImage(img int) int {
	for phys, i := range m.mapped {
		if i == img && !m.bypassed[phys] {
			return phys
		}
	}
	return -1
}

// Bypassed reports whether the thread has been re-cabled around slot.
func (m *Module) Bypassed(slot int) bool {
	return slot >= 0 && slot < len(m.bypassed) && m.bypassed[slot]
}

// Spares lists the physical slots currently holding no image and still
// in the thread — the pool AdoptImage can draw from.
func (m *Module) Spares() []int {
	var out []int
	for phys, img := range m.mapped {
		if img < 0 && !m.bypassed[phys] {
			out = append(out, phys)
		}
	}
	return out
}

// BypassSlot re-cables the module thread around a dead slot: the
// nearest upstream live element's thread-out is rewired directly to the
// nearest downstream live element's thread-in. The slot's image (if
// any) is orphaned — capture ImageOf first if it must be adopted.
func (m *Module) BypassSlot(slot int) error {
	if slot < 0 || slot >= len(m.Nodes) {
		return fmt.Errorf("module %d: bypass slot %d out of range", m.Index, slot)
	}
	if m.bypassed[slot] {
		return nil
	}
	// Upstream neighbor still in the thread (or the system board).
	out := m.Sys.Link.Sublink(sysThreadOut)
	for i := slot - 1; i >= 0; i-- {
		if !m.bypassed[i] {
			out = m.Nodes[i].Sublink(ThreadOutSublink)
			break
		}
	}
	// Downstream neighbor still in the thread (or the system board).
	in := m.Sys.Link.Sublink(sysThreadIn)
	for i := slot + 1; i < len(m.Nodes); i++ {
		if !m.bypassed[i] {
			in = m.Nodes[i].Sublink(ThreadInSublink)
			break
		}
	}
	if err := link.Rewire(out, in); err != nil {
		return fmt.Errorf("module %d: bypassing slot %d: %w", m.Index, slot, err)
	}
	m.bypassed[slot] = true
	m.mapped[slot] = -1
	return nil
}

// AdoptImage hands image img to a spare physical slot. The slot's
// memory is garbage until the next Restore feeds it the image's latest
// checkpoint.
func (m *Module) AdoptImage(slot, img int) error {
	if slot < 0 || slot >= len(m.Nodes) {
		return fmt.Errorf("module %d: adopt slot %d out of range", m.Index, slot)
	}
	if m.bypassed[slot] {
		return fmt.Errorf("module %d: slot %d is bypassed", m.Index, slot)
	}
	if m.mapped[slot] >= 0 {
		return fmt.Errorf("module %d: slot %d already carries image %d", m.Index, slot, m.mapped[slot])
	}
	if prev := m.SlotOfImage(img); prev >= 0 {
		return fmt.Errorf("module %d: image %d still lives on slot %d", m.Index, img, prev)
	}
	m.mapped[slot] = img
	return nil
}
