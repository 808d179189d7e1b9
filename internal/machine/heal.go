package machine

import (
	"errors"
	"fmt"
	"slices"

	"tseries/internal/comm"
	"tseries/internal/cube"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// Self-healing: Detector verdicts in, remapped machine out. Heal holds
// back the top slots of each module as cold spares — the paper's usable
// 12-cube inside the 14-cube, in miniature — and attaches a heartbeat
// failure detector. When a board is confirmed dead (by heartbeat silence
// or frozen progress), recovery re-cables the module thread around the
// corpse, hands its checkpoint identity to a spare, restores the whole
// machine from the latest snapshot, and replays. When a module's spares
// are exhausted it falls back to degraded operation: the dead board is
// repaired in place at the cost of a BoardSwapTime stall.

// Heal turns self-healing on: it reserves each module's top spares
// slots as cold spares, fixes the image list in Gray-code ring order
// skipping them, and attaches a failure detector. It must run before
// the first snapshot (spares carry no checkpoint identity).
func (sv *Supervisor) Heal(spares int) error {
	if spares < 0 || spares >= module.NodesPerModule {
		return fmt.Errorf("machine: %d spare nodes per module out of range 0..%d", spares, module.NodesPerModule-1)
	}
	m := sv.M
	for _, mod := range m.Modules {
		k := min(spares, len(mod.Nodes)-1)
		for s := len(mod.Nodes) - k; s < len(mod.Nodes); s++ {
			if err := mod.SetSpare(s); err != nil {
				return err
			}
		}
	}
	sv.imgs = cube.RingSkipping(m.Dim, func(i int) bool { return sv.PhysOf(i) < 0 })
	sv.det = newDetector(m, sv)
	return nil
}

// Images returns the image ids Run spawns a body for, in spawn order:
// every node in id order, or after Heal the Gray-code ring skipping the
// spares — the logical ring a remapping-aware workload should iterate.
func (sv *Supervisor) Images() []int { return slices.Clone(sv.imgs) }

// PhysOf returns the physical node currently carrying image img, or -1
// if none does: a spare's position, or an image lost with no spare to
// adopt it. It reads the image map of img's module.
func (sv *Supervisor) PhysOf(img int) int {
	if img < 0 || img >= len(sv.M.Nodes) {
		return -1
	}
	mod := sv.M.Modules[img/module.NodesPerModule]
	slot := mod.SlotOfImage(img % module.NodesPerModule)
	if slot < 0 {
		return -1
	}
	return mod.Index*module.NodesPerModule + slot
}

// NodeOf returns the board currently carrying image img.
func (sv *Supervisor) NodeOf(img int) *node.Node { return sv.M.Nodes[sv.PhysOf(img)] }

// EndpointOf returns the message endpoint of the board currently
// carrying image img.
func (sv *Supervisor) EndpointOf(img int) *comm.Endpoint { return sv.M.Net.Endpoint(sv.PhysOf(img)) }

// reseed pairs a corpse whose image moved before any snapshot reached
// the disk with the spare that must be seeded from its static RAM.
type reseed struct{ corpse, spare int }

// repair returns the dead boards to service; recover calls it in its
// flush Global section. Without a detector (the declared-fault model) a
// dead board is repaired in place at once. With one, a confirmed hang is
// taken out of service like a death, and every dead, still-cabled board
// is bypassed and its image adopted by a spare of its module — or, with
// the pool empty, repaired in place at the cost of a BoardSwapTime stall
// (degraded). It returns the corpses whose images moved with no
// snapshot to restore them from.
func (sv *Supervisor) repair(p *sim.Proc, cause error) (reseeds []reseed, degraded bool, err error) {
	m := sv.M
	if sv.det == nil {
		for _, nd := range m.Nodes {
			if !nd.Alive() {
				nd.Repair()
			}
		}
		return nil, false, nil
	}
	// A confirmed hang is handled like a death: the board is wedged, so
	// take it out of service and let the remap path claim it.
	var hung *DetectedHang
	if errors.As(cause, &hung) {
		if nd := m.Nodes[hung.Node]; nd.Alive() {
			nd.Crash()
		}
		sv.hung[hung.Node] = false
	}
	// Remap every dead, still-cabled board.
	for phys, nd := range m.Nodes {
		if nd.Alive() {
			continue
		}
		mod := m.Modules[phys/module.NodesPerModule]
		base := mod.Index * module.NodesPerModule
		slot := phys - base
		if mod.Bypassed(slot) {
			continue // already out of the machine
		}
		img := mod.ImageOf(slot)
		if img < 0 {
			// A dead cold spare: nothing to save, just cut it out.
			if err := mod.BypassSlot(slot); err != nil {
				return nil, false, err
			}
			sv.note(p, "spare slot %d of module %d died; bypassed", slot, mod.Index)
			continue
		}
		spare := sv.pickSpare(mod)
		if spare < 0 {
			// Spares exhausted: repair in place, pay the engineer visit.
			nd.Repair()
			sv.hung[phys] = false
			degraded = true
			sv.Degraded++
			m.K.Count("heal.degraded_count", 1)
			sv.note(p, "node %d dead, no spare in module %d: degraded in-place repair", phys, mod.Index)
			continue
		}
		if err := mod.BypassSlot(slot); err != nil {
			return nil, false, err
		}
		if err := mod.AdoptImage(spare, img); err != nil {
			return nil, false, err
		}
		if sv.lastSnaps == nil {
			reseeds = append(reseeds, reseed{corpse: phys, spare: base + spare})
		}
		sv.hung[phys] = false
		sv.Remaps++
		m.K.Count("heal.remap_count", 1)
		sv.note(p, "node %d dead: image %d remapped to spare slot %d of module %d", phys, base+img, spare, mod.Index)
	}
	return reseeds, degraded, nil
}

// pickSpare returns the lowest live spare slot of a module, bypassing
// any dead spares it walks over; -1 when the pool is empty.
func (sv *Supervisor) pickSpare(mod *module.Module) int {
	base := mod.Index * module.NodesPerModule
	for _, s := range mod.Spares() {
		if sv.M.Nodes[base+s].Alive() {
			return s
		}
		// Dead spare: cut it out so the thread stays whole.
		if err := mod.BypassSlot(s); err == nil {
			sv.note(nil, "dead spare slot %d of module %d bypassed", s, mod.Index)
		}
	}
	return -1
}

func (sv *Supervisor) note(p *sim.Proc, format string, args ...interface{}) {
	at := sv.M.K.Now()
	if p != nil {
		at = p.Now()
	}
	sv.Events = append(sv.Events, fmt.Sprintf("[%v] %s", at, fmt.Sprintf(format, args...)))
}
