package machine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tseries/internal/comm"
	"tseries/internal/fault"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// Recovery policy. The snapshot interval is not part of it: a workload
// picks its own and passes it to MaybeCheckpoint (the paper calls about
// 10 minutes a good compromise against a snapshot of about 15 seconds).
const (
	// MaxRestarts bounds how many rollbacks a supervised run tolerates.
	MaxRestarts = 4
	// DrainTime lets in-flight DMA and router traffic settle after a
	// halt, before state is flushed.
	DrainTime = 500 * sim.Millisecond
	// BoardSwapTime is the degraded-mode stall for repairing a dead board
	// in place once spares are exhausted — the field-engineer visit the
	// spare pool exists to avoid.
	BoardSwapTime = 120 * sim.Second
)

// Supervisor is the recovery orchestrator the paper's system ring and
// disk exist to support: it runs a distributed workload under watch,
// and when an unrecoverable fault surfaces — a node crash, a link that
// stays dead past its retransmit budget, a memory parity error — it
// halts the machine, flushes in-flight traffic, repairs the dead
// boards, restores the last consistent snapshot from the module disks,
// and replays. A workload that keeps its progress in checkpointed node
// memory resumes from the last completed phase rather than from
// scratch.
//
// Workloads run on IMAGES, not boards: image i is the checkpoint
// identity that booted on physical node i, and the modules' image maps
// say which board carries it now. Heal turns self-healing on: a
// heartbeat failure detector finds dead and hung boards with no fault
// plan courtesy required, and recovery moves a dead board's image onto
// a cold spare.
type Supervisor struct {
	M *Machine

	// alarm and ok are shard-0 channels fed from every shard: alarm
	// carries body errors and fault alarms, ok body-completed tokens.
	// gen tags ok tokens so leftovers of a halted restart are skipped.
	alarm *shard0Chan
	ok    *shard0Chan
	gen   int64

	// imgs lists the images Run spawns a body for, in spawn order: every
	// node in id order, or after Heal the Gray ring skipping the spares.
	imgs  []int
	procs []*sim.Proc
	// hung marks boards wedged by a hang fault. The wedge is a property
	// of the BOARD, not of whatever process happened to be running: a
	// body spawned onto a hung board later (a hang that landed between
	// restarts, or during boot) stops dead immediately. It is a slice,
	// not a map, so concurrent same-window writes from different shards
	// (always to distinct indices — each shard wedges only its own
	// boards) stay race-free.
	hung      []bool
	lastSnaps []*module.Snapshot
	prevSnaps []*module.Snapshot
	lastCkpt  sim.Time

	// det, attached by Heal, is suspended around checkpoints and
	// recovery so the thread congestion they cause is not read as
	// silence.
	det *Detector

	// Counters for FaultReport.
	Crashes          int64
	Hangs            int64
	ParityFaults     int64
	Rollbacks        int64
	RestoreFallbacks int64

	// Remaps counts images moved onto spares; Degraded counts in-place
	// repairs after spare exhaustion. Both stay zero without Heal.
	Remaps   int64
	Degraded int64
	// Events is a human-readable heal log.
	Events []string

	// LastRecovery is the halt-to-replay time of the most recent
	// recovery (the experiment E17 recovery-time metric).
	LastRecovery sim.Duration
}

// NewSupervisor attaches a recovery supervisor to a machine.
func NewSupervisor(m *Machine) *Supervisor {
	chans := m.shard0Chans(
		sim.NewChan(m.K, "supervisor/alarm", 1024),
		sim.NewChan(m.K, "supervisor/ok", 4*m.Spec.Nodes))
	imgs := make([]int, len(m.Nodes))
	for i := range imgs {
		imgs[i] = i
	}
	return &Supervisor{
		M:     m,
		alarm: chans[0],
		ok:    chans[1],
		imgs:  imgs,
		hung:  make([]bool, m.Spec.Nodes),
	}
}

// post raises an alarm from kernel (event-callback) context on shard s,
// where no process is running to block on the channel send.
func (sv *Supervisor) post(s int, err error) {
	sv.M.Group.Shard(s).Go("supervisor/alarmpost", func(p *sim.Proc) {
		sv.alarm.send(p, s, err)
	})
}

// NodeCrashed is the fault injector's notification that a node died.
// The node's application process is killed on the spot — its board
// stopped executing. A declared crash also alarms the supervisor; a
// silent one is left for the failure detector to find.
func (sv *Supervisor) NodeCrashed(id int, declared bool) {
	// This runs on the crashed node's shard; two shards can take a crash
	// in the same window, so the counter is atomic (its final value is
	// still deterministic — it counts events).
	atomic.AddInt64(&sv.Crashes, 1)
	sv.killBody(id)
	if declared {
		sv.post(shardOf(id), &comm.CrashedError{Node: id})
	}
}

// NodeHung wedges a node: its application process stops dead, but the
// board keeps beating with a frozen progress word. Hangs are always
// silent; only a detector watching progress can tell this from slow
// code.
func (sv *Supervisor) NodeHung(id int) {
	atomic.AddInt64(&sv.Hangs, 1)
	sv.hung[id] = true
	sv.killBody(id)
}

func (sv *Supervisor) killBody(id int) {
	if id < len(sv.procs) {
		if pr := sv.procs[id]; pr != nil {
			pr.Kill()
		}
	}
}

// withDetector runs fn on the attached detector in a Global section, so
// boards on every shard see the change at a window barrier. Without a
// detector it does nothing: a run without Heal carries no Global section
// for it.
func (sv *Supervisor) withDetector(p *sim.Proc, fn func(*Detector)) {
	if sv.det != nil {
		sv.M.Group.Global(p, func(sim.Time) { fn(sv.det) })
	}
}

// Checkpoint snapshots every module now and makes it the rollback
// target, keeping the previous snapshot as a fallback against disk
// corruption.
func (sv *Supervisor) Checkpoint(p *sim.Proc) error {
	// A snapshot floods the module threads for seconds; a detector left
	// watching would read the delayed beats as silence. p runs on shard 0
	// with the detector, as SnapshotAll requires.
	sv.withDetector(p, (*Detector).Suspend)
	defer sv.withDetector(p, (*Detector).Resume)
	snaps, err := sv.M.SnapshotAll(p)
	if err != nil {
		return err
	}
	sv.prevSnaps, sv.lastSnaps = sv.lastSnaps, snaps
	sv.lastCkpt = p.Now()
	return nil
}

// MaybeCheckpoint checkpoints if at least interval has elapsed since
// the last one. interval <= 0 disables periodic checkpointing.
func (sv *Supervisor) MaybeCheckpoint(p *sim.Proc, interval sim.Duration) error {
	if interval <= 0 || p.Now().Sub(sv.lastCkpt) < interval {
		return nil
	}
	return sv.Checkpoint(p)
}

// Run executes body once per image under supervision: it takes a boot
// checkpoint, starts the detector if Heal attached one, spawns one
// process per image on the shard of the board that carries it, and
// waits for all of them — or for a fault. A body that returns an error
// raises an alarm (so do the fault injector, for declared crashes, and
// the detector); the supervisor then recovers and replays, up to
// MaxRestarts times. A fault that tears the boot checkpoint is
// recovered from the same way, and the checkpoint retaken. Bodies spawn
// inside a Global section, so spawn order never races; completions and
// alarms travel the staged uplink edges to the supervising process,
// which must run on shard 0, where the alarm channel lives.
func (sv *Supervisor) Run(p *sim.Proc, body func(bp *sim.Proc, img int) error) error {
	m := sv.M
	restart := 0
	// recoverFrom follows a fault with the recovery sequence, retrying
	// within the restart budget when recovery is itself interrupted (a
	// second board dying mid-restore).
	recoverFrom := func(cause error) error {
		for {
			err := sv.recover(p, cause)
			if err == nil {
				return nil
			}
			if restart++; restart > MaxRestarts {
				return err
			}
			cause = err
		}
	}
	for {
		err := sv.Checkpoint(p)
		if err == nil {
			break
		}
		if restart >= MaxRestarts {
			return err
		}
		restart++
		if err := recoverFrom(err); err != nil {
			return err
		}
	}
	sv.withDetector(p, (*Detector).Start)
	defer sv.withDetector(p, (*Detector).Stop)
	for ; ; restart++ {
		for _, img := range sv.imgs {
			if sv.PhysOf(img) < 0 {
				m.Group.Global(p, func(sim.Time) { sv.killBodies() })
				return fmt.Errorf("supervisor: image %d has no board", img)
			}
		}
		sv.gen++
		gen := sv.gen
		sv.procs = make([]*sim.Proc, len(m.Nodes))
		m.Group.Global(p, func(sim.Time) {
			for _, img := range sv.imgs {
				phys := sv.PhysOf(img)
				pr := sv.spawnBody(img, phys, gen, body)
				sv.procs[phys] = pr
				if sv.hung[phys] {
					// The board wedged before this body ever ran; it stops
					// dead, and only the progress-watching detector can tell.
					pr.Kill()
				}
			}
		})
		faultErr := sv.await(p, len(sv.imgs), gen)
		if faultErr == nil {
			return nil
		}
		if restart >= MaxRestarts {
			m.Group.Global(p, func(sim.Time) { sv.killBodies() })
			return fmt.Errorf("supervisor: giving up after %d restarts: %v", restart, faultErr)
		}
		if err := recoverFrom(faultErr); err != nil {
			return err
		}
	}
}

// spawnBody starts image img's body as a process on board phys's shard,
// from a Global section. A body that fails raises its error as an
// alarm; one that returns cleanly posts an ok token of generation gen.
func (sv *Supervisor) spawnBody(img, phys int, gen int64, body func(bp *sim.Proc, img int) error) *sim.Proc {
	s := shardOf(phys)
	return sv.M.Nodes[phys].K.Go(fmt.Sprintf("supervisor/img%d", img), func(bp *sim.Proc) {
		if err := body(bp, img); err != nil {
			sv.noteFault(err)
			sv.alarm.send(bp, s, err)
			return
		}
		sv.ok.send(bp, s, okTok{gen: gen})
	})
}

// await collects `want` ok tokens of generation gen, or the first alarm
// that arrives before them, which it returns.
func (sv *Supervisor) await(p *sim.Proc, want int, gen int64) error {
	for oks := 0; oks < want; {
		which, v := sim.Select(p, sv.alarm.ch, sv.ok.ch)
		if which == 0 {
			return v.(error)
		}
		if v.(okTok).gen == gen {
			oks++
		}
	}
	return nil
}

// killBodies halts every outstanding body process. Give-up paths must
// call this before abandoning a run: a body left blocked on a dead
// peer's message would wedge the kernel drain as a phantom deadlock.
func (sv *Supervisor) killBodies() {
	for _, pr := range sv.procs {
		if pr != nil {
			pr.Kill()
		}
	}
}

// noteFault classifies a body error for the counters. Bodies on
// different shards can fault in the same window, so the counter is
// atomic.
func (sv *Supervisor) noteFault(err error) {
	var pe *memory.ParityError
	if errors.As(err, &pe) {
		atomic.AddInt64(&sv.ParityFaults, 1)
	}
}

// okTok is one body-completed token, tagged with the restart
// generation so tokens of a halted restart are skipped.
type okTok struct{ gen int64 }

// recover is the recovery sequence that follows every fault: halt,
// drain, flush, repair, restore, and clear stale alarms. Every step that
// touches state owned by other shards — killing bodies, aborting
// snapshots, flushing, the repair — runs in a Global section with all
// shards quiescent; the timed waits (the drain, the boot-state service
// reads, the degraded-mode board swap) run between the sections, since a
// Global body must not block. The drain lets in-flight DMA transfers,
// router forwards and staged frames (bounded by the frame transfer
// time, microseconds against a 500 ms drain) settle, so nothing
// re-enters the queues behind the flush. With no snapshot on disk yet
// (a torn boot checkpoint) there is nothing to restore: the caller
// retakes the checkpoint.
func (sv *Supervisor) recover(p *sim.Proc, cause error) error {
	m := sv.M
	start := p.Now()
	sv.withDetector(p, (*Detector).Suspend)
	defer sv.withDetector(p, (*Detector).Resume)
	m.Group.Global(p, func(sim.Time) {
		sv.killBodies()
		// A crash can land mid-checkpoint; abort the snapshot workers
		// too, or a stale collector would swallow the chunks of later
		// snapshots.
		for _, mod := range m.Modules {
			mod.AbortSnapshot()
		}
	})
	p.Wait(DrainTime)
	var reseeds []reseed
	var degraded bool
	var err error
	m.Group.Global(p, func(sim.Time) {
		m.Net.Flush()
		for _, mod := range m.Modules {
			mod.FlushThread()
		}
		reseeds, degraded, err = sv.repair(p, cause)
	})
	if err != nil {
		return err
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
	if sv.det != nil {
		m.K.Count("heal.recover_ns", int64(sv.LastRecovery/sim.Nanosecond))
	}
	return nil
}

// restoreLatest rewinds to the newest snapshot, falling back one
// generation if its blocks rotted on disk.
func (sv *Supervisor) restoreLatest(p *sim.Proc) error {
	if err := sv.M.RestoreAll(p, sv.lastSnaps); err != nil {
		sv.RestoreFallbacks++
		if sv.prevSnaps == nil {
			return fmt.Errorf("supervisor: restore failed with no older snapshot: %v", err)
		}
		sv.lastSnaps, sv.prevSnaps = sv.prevSnaps, nil
		if err := sv.M.RestoreAll(p, sv.lastSnaps); err != nil {
			return fmt.Errorf("supervisor: fallback restore failed: %v", err)
		}
	}
	return nil
}

func (sv *Supervisor) drainAlarms() {
	for {
		if _, ok := sv.alarm.ch.TryRecv(); !ok {
			break
		}
	}
}

// ArmFaults attaches a fault plan to the machine: the plan's bit-error
// injector goes on every link (node links and module system links),
// and each timed event is scheduled on the shard that owns its target.
// sv, which the events report crashes and hangs to, may be nil when no
// supervision is wanted (pure injection experiments); a hang then does
// nothing.
//
// One-shard rule 3: on a one-shard machine the plan itself is the
// injector on every link, a single splitmix64 stream consumed in kernel
// order. Streams cannot be shared across shards, so above one shard
// each link gets its own stream derived from (seed, link name) —
// created here, in host context, so stream creation never depends on
// simulation scheduling.
func (m *Machine) ArmFaults(plan *fault.Plan, sv *Supervisor) {
	if plan == nil {
		return
	}
	injector := func(string) link.Injector { return plan }
	if len(m.Modules) > 1 {
		m.faults = fault.NewSharded(plan)
		injector = func(name string) link.Injector { return m.faults.ForLink(name) }
	}
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			l.SetInjector(injector(l.Name))
		}
	}
	for _, mod := range m.Modules {
		mod.Sys.Link.SetInjector(injector(mod.Sys.Link.Name))
	}
	for _, ev := range plan.Events {
		ev := ev
		shard := 0
		switch ev.Kind {
		case fault.DiskCorrupt:
			if ev.Mod < len(m.Modules) {
				shard = ev.Mod
			}
		default:
			if ev.Node < len(m.Nodes) {
				shard = shardOf(ev.Node)
			}
		}
		m.Group.Shard(shard).At(sim.Time(ev.At), func() { m.applyFault(ev, sv) })
	}
}

// applyFault executes one timed fault event.
func (m *Machine) applyFault(ev fault.Event, sv *Supervisor) {
	switch ev.Kind {
	case fault.Crash:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() {
			m.Nodes[ev.Node].Crash()
			if sv != nil {
				sv.NodeCrashed(ev.Node, !ev.Silent)
			}
		}
	case fault.Hang:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() && sv != nil {
			sv.NodeHung(ev.Node)
		}
	case fault.LinkDown, fault.LinkUp:
		if ev.Node < len(m.Nodes) && ev.Dim < m.Dim {
			// Severing one end kills the channel both ways: neither
			// side sees acknowledges while it is down.
			m.Nodes[ev.Node].Sublink(comm.CubeSublink(ev.Dim)).SetDown(ev.Kind == fault.LinkDown)
		}
	case fault.FlipBit:
		if ev.Node < len(m.Nodes) {
			m.Nodes[ev.Node].Mem.FlipBit(ev.Addr, ev.Bit)
		}
	case fault.DiskCorrupt:
		if ev.Mod < len(m.Modules) {
			m.Modules[ev.Mod].Disk.CorruptNth(ev.Blk)
		}
	}
}

// FaultReport aggregates the fault and recovery counters of the whole
// machine: the plan's injection totals, every link's error accounting,
// every endpoint's routing decisions, the disks' scrub results, and
// the supervisor's rollback history. plan and sv may be nil.
func (m *Machine) FaultReport(plan *fault.Plan, sv *Supervisor) stats.FaultCounters {
	var fc stats.FaultCounters
	if plan != nil {
		fc.FramesCorrupted = plan.FramesCorrupted
		fc.BitsFlipped = plan.BitsFlipped
	}
	if m.faults != nil {
		// Per-link injection: the link streams hold the counts (the
		// plan's own stream was never consumed).
		f, b := m.faults.Totals()
		fc.FramesCorrupted += f
		fc.BitsFlipped += b
	}
	addLink := func(l *link.Link) {
		fc.Detected += l.Corrupted - l.Undetected
		fc.Undetected += l.Undetected
		fc.Retransmits += l.Retransmits
		fc.Timeouts += l.Timeouts
		fc.Drops += l.Drops
	}
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			addLink(l)
		}
	}
	for _, mod := range m.Modules {
		addLink(mod.Sys.Link)
		fc.DiskCorrupted += mod.Disk.Corrupted
	}
	for id := 0; id < m.Net.Size(); id++ {
		ep := m.Net.Endpoint(id)
		fc.Detours += ep.Detours
		fc.RouteDrops += ep.RouteDrops
	}
	if sv != nil {
		fc.Crashes = sv.Crashes
		fc.Hangs = sv.Hangs
		fc.ParityFaults = sv.ParityFaults
		fc.Rollbacks = sv.Rollbacks
		fc.RestoreFallbacks = sv.RestoreFallbacks
	}
	return fc
}
