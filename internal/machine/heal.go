package machine

import (
	"errors"
	"fmt"

	"tseries/internal/comm"
	"tseries/internal/cube"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// Healer is the self-healing orchestrator: Detector verdicts in,
// remapped machine out. It extends the checkpoint/rollback supervisor
// with spare-node remapping — each module holds back its top
// Spec.Recovery.SpareNodes slots as cold spares, and when a board is
// confirmed dead (by heartbeat silence or frozen progress, no fault
// plan courtesy required) the healer re-cables the module thread around
// the corpse, hands its checkpoint identity to a spare, restores the
// whole machine from the latest snapshot, and replays. When a module's
// spares are exhausted it falls back to degraded operation: the dead
// board is repaired in place at the cost of a BoardSwapTime stall — the
// simulated field-engineer visit.
//
// Workloads run on IMAGES, not boards: image i is the checkpoint
// identity that booted on physical node i. Remapping moves an image to
// a different board; PhysOf tracks where each one lives now.
type Healer struct {
	M   *Machine
	SV  *Supervisor
	Det *Detector

	physOf []int // image id → physical node id, -1 for "never an image"

	// Remaps counts images moved onto spares; Degraded counts in-place
	// repairs after spare exhaustion.
	Remaps   int64
	Degraded int64
	// Events is a human-readable heal log.
	Events []string
}

// BoardSwapTime is the degraded-mode stall for repairing a dead board
// in place once spares are exhausted — the field-engineer visit the
// spare pool exists to avoid.
const BoardSwapTime = 120 * sim.Second

// NewHealer validates the machine's recovery policy, reserves each
// module's top SpareNodes slots as cold spares, and attaches a failure
// detector. It must run before the first snapshot (spares carry no
// checkpoint identity).
func NewHealer(m *Machine, sv *Supervisor) (*Healer, error) {
	if err := m.Spec.Validate(); err != nil {
		return nil, err
	}
	h := &Healer{M: m, SV: sv, physOf: make([]int, len(m.Nodes))}
	for i := range h.physOf {
		h.physOf[i] = i
	}
	nSpares := m.Spec.Recovery.SpareNodes
	for _, mod := range m.Modules {
		k := nSpares
		if k >= len(mod.Nodes) {
			k = len(mod.Nodes) - 1
		}
		base := mod.Index * module.NodesPerModule
		for s := len(mod.Nodes) - k; s < len(mod.Nodes); s++ {
			if err := mod.SetSpare(s); err != nil {
				return nil, err
			}
			h.physOf[base+s] = -1
		}
	}
	h.Det = NewDetector(m, sv)
	return h, nil
}

// Images returns the image ids in Gray-code ring order, skipping the
// spare positions — the logical ring a remapping-aware workload should
// iterate.
func (h *Healer) Images() []int {
	return cube.RingSkipping(h.M.Dim, func(i int) bool { return h.physOf[i] < 0 })
}

// PhysOf returns the physical node currently carrying image img, or -1
// if the image is lost (died with no spare and no repair yet).
func (h *Healer) PhysOf(img int) int {
	if img < 0 || img >= len(h.physOf) {
		return -1
	}
	return h.physOf[img]
}

// NodeOf returns the board currently carrying image img.
func (h *Healer) NodeOf(img int) *node.Node { return h.M.Nodes[h.physOf[img]] }

// EndpointOf returns the message endpoint of the board currently
// carrying image img.
func (h *Healer) EndpointOf(img int) *comm.Endpoint { return h.M.Net.Endpoint(h.physOf[img]) }

// healRetrying runs the heal sequence, retrying within the restart
// budget when healing is itself interrupted (a second board dying
// mid-restore).
func (h *Healer) healRetrying(p *sim.Proc, restart *int, cause error) error {
	for {
		err := h.heal(p, cause)
		if err == nil {
			return nil
		}
		*restart++
		if *restart > h.SV.MaxRestarts {
			return err
		}
		cause = err
	}
}

// Run executes body once per image under self-healing supervision: an
// initial checkpoint, heartbeats and detection on, one process per
// image on the shard of whatever board carries it. Detector verdicts
// (and declared faults) trigger the heal sequence and a replay, up to
// MaxRestarts times. Bodies spawn inside a Global section, so spawn
// order never races; completions and alarms travel the staged uplink
// edges, and the detector daemons start and stop with every shard
// quiescent.
func (h *Healer) Run(p *sim.Proc, body func(bp *sim.Proc, img int) error) error {
	sv, m := h.SV, h.M
	imgs := h.Images()
	restart := 0
	// The boot checkpoint itself can be torn by a fault (the stall
	// watchdog turns that into an error rather than a wedged machine);
	// heal and retry within the restart budget.
	for {
		err := sv.Checkpoint(p)
		if err == nil {
			break
		}
		if restart >= sv.MaxRestarts {
			return err
		}
		restart++
		if err := h.healRetrying(p, &restart, err); err != nil {
			return err
		}
	}
	m.Group.Global(p, func(sim.Time) { h.Det.Start() })
	defer m.Group.Global(p, func(sim.Time) { h.Det.Stop() })
	for ; ; restart++ {
		for _, img := range imgs {
			if h.physOf[img] < 0 {
				m.Group.Global(p, func(sim.Time) { sv.killBodies() })
				return fmt.Errorf("healer: image %d has no board", img)
			}
		}
		sv.gen++
		gen := sv.gen
		sv.procs = make([]*sim.Proc, len(m.Nodes))
		m.Group.Global(p, func(sim.Time) {
			for _, img := range imgs {
				img := img
				phys := h.physOf[img]
				pr := sv.spawnBody(fmt.Sprintf("healer/img%d", img), phys, gen,
					func(bp *sim.Proc) error { return body(bp, img) })
				sv.procs[phys] = pr
				if sv.hung[phys] {
					// The board wedged before this body ever ran; it stops
					// dead, and only the progress-watching detector can tell.
					pr.Kill()
				}
			}
		})
		faultErr := sv.await(p, len(imgs), gen)
		if faultErr == nil {
			return nil
		}
		if restart >= sv.MaxRestarts {
			m.Group.Global(p, func(sim.Time) { sv.killBodies() })
			return fmt.Errorf("healer: giving up after %d restarts: %v", restart, faultErr)
		}
		if err := h.healRetrying(p, &restart, faultErr); err != nil {
			return err
		}
	}
}

// heal is the remap-aware recovery sequence: halt, drain, flush,
// bypass-and-remap (or degrade), restore, replay. Every step that
// touches state owned by other shards — killing bodies, aborting
// snapshots, flushing, the bypass/remap walk — runs in a Global section
// with all shards quiescent; the timed waits (the boot-state service
// reads, the degraded-mode board swap) run between the sections, after
// the walk, since a Global body must not block.
func (h *Healer) heal(p *sim.Proc, cause error) error {
	sv, m := h.SV, h.M
	start := p.Now()
	m.Group.Global(p, func(sim.Time) { h.Det.Suspend() })
	defer m.Group.Global(p, func(sim.Time) { h.Det.Resume() })

	m.Group.Global(p, func(sim.Time) {
		sv.killBodies()
		for _, mod := range m.Modules {
			mod.AbortSnapshot()
		}
	})
	p.Wait(sv.DrainTime)

	type reseed struct{ corpse, spare int }
	var reseeds []reseed
	degraded := false
	var healErr error
	m.Group.Global(p, func(sim.Time) {
		m.Net.Flush()
		for _, mod := range m.Modules {
			mod.FlushThread()
		}
		// A confirmed hang is handled like a death: the board is wedged,
		// so take it out of service and let the remap path claim it.
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
					healErr = err
					return
				}
				h.note(p, "spare slot %d of module %d died; bypassed", slot, mod.Index)
				continue
			}
			spare := h.pickSpare(mod)
			if spare < 0 {
				// Spares exhausted: repair in place, pay the engineer visit.
				nd.Repair()
				sv.hung[phys] = false
				degraded = true
				h.Degraded++
				m.K.Count("heal.degraded_count", 1)
				h.note(p, "node %d dead, no spare in module %d: degraded in-place repair", phys, mod.Index)
				continue
			}
			if err := mod.BypassSlot(slot); err != nil {
				healErr = err
				return
			}
			if err := mod.AdoptImage(spare, img); err != nil {
				healErr = err
				return
			}
			if sv.lastSnaps == nil {
				reseeds = append(reseeds, reseed{corpse: phys, spare: base + spare})
			}
			sv.hung[phys] = false
			h.physOf[base+img] = base + spare
			h.Remaps++
			m.K.Count("heal.remap_count", 1)
			h.note(p, "node %d dead: image %d remapped to spare slot %d of module %d", phys, base+img, spare, mod.Index)
		}
	})
	if healErr != nil {
		return healErr
	}
	if len(reseeds) > 0 {
		// The boot checkpoint never completed, so there is nothing on
		// disk to restore the images from. The dead boards' static RAM
		// still holds their untouched boot state: pay the service-path
		// read time per corpse, then seed the spares from it with the
		// machine quiescent.
		for range reseeds {
			p.Wait(sim.Duration(memory.NumRows) * sim.RowAccess)
		}
		m.Group.Global(p, func(sim.Time) {
			for _, r := range reseeds {
				m.Nodes[r.spare].Mem.PokeBytes(0, m.Nodes[r.corpse].Mem.PeekBytes(0, memory.Bytes))
			}
		})
	}
	if degraded {
		p.Wait(BoardSwapTime)
	}

	if sv.lastSnaps != nil {
		if err := sv.restoreLatest(p); err != nil {
			return err
		}
		sv.Rollbacks++
	}
	sv.drainAlarms()
	sv.LastRecovery = p.Now().Sub(start)
	m.K.Count("heal.recover_ns", int64(sv.LastRecovery/sim.Nanosecond))
	return nil
}

// pickSpare returns the lowest live spare slot of a module, bypassing
// any dead spares it walks over; -1 when the pool is empty.
func (h *Healer) pickSpare(mod *module.Module) int {
	base := mod.Index * module.NodesPerModule
	for _, s := range mod.Spares() {
		if h.M.Nodes[base+s].Alive() {
			return s
		}
		// Dead spare: cut it out so the thread stays whole.
		if err := mod.BypassSlot(s); err == nil {
			h.note(nil, "dead spare slot %d of module %d bypassed", s, mod.Index)
		}
	}
	return -1
}

func (h *Healer) note(p *sim.Proc, format string, args ...interface{}) {
	at := h.M.K.Now()
	if p != nil {
		at = p.Now()
	}
	h.Events = append(h.Events, fmt.Sprintf("[%v] %s", at, fmt.Sprintf(format, args...)))
}
