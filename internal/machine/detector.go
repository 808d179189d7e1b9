package machine

import (
	"fmt"

	"tseries/internal/link"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// Detector is the machine-level failure detector. Every DetectInterval
// each system board judges the heartbeat ledger of its own slots and
// the retransmit counters of its own links, on its own shard, into a
// small verdict. Module 0's board judges inline in the detector pass;
// every other board posts its verdict to module 0 over the control
// plane's staged uplinks. Module 0 then applies the machine-wide rules.
// The detector discovers three failure classes without being told by
// the fault plan:
//
//   - Crashes: a dead board beats no more. Because all thread traffic
//     flows one way through the module chain, a dead slot also silences
//     every lower slot; a board therefore reports only the
//     HIGHEST-indexed silent slot — the cut point — and lets the lower
//     slots speak for themselves once the thread is re-cabled around
//     the corpse.
//   - Hangs: beats keep arriving but the progress word they carry has
//     frozen past HangTimeout on a node that had been advancing.
//   - Lossy links: a channel whose retransmit count climbs faster than
//     LossyRetransmits per detect window is recorded (discovery only —
//     the link layer already masks the loss).
//
// Suspicion is phi-accrual style: silence is measured in units of the
// per-slot EWMA inter-beat gap, floored at the beat period, so a slot
// that naturally beats slowly (thread congestion) is not condemned by a
// fixed timeout.
type Detector struct {
	M  *Machine
	sv *Supervisor

	susp  int      // suspension depth
	floor sim.Time // silence baseline: Start, then every Resume

	confirmed map[int]bool // nodes already alarmed this round
	// priorHangs remembers every node ever condemned for a hang. Unlike
	// confirmed it survives Resume: a wrong hang pick is crashed,
	// repaired, and rolled back, which recreates the exact frozen-
	// progress tie that misled the pick — without a memory of past
	// convictions the detector would condemn the same innocent dependent
	// every round and the restart budget would drain without ever
	// reaching the true victim.
	priorHangs map[int]bool
	// lastRtx and lossy hold each link's retransmit count at its board's
	// last pass and its verdict, indexed node*LinksPerNode+link. Each
	// board touches only its own nodes' entries.
	lastRtx []int64
	lossy   []bool

	// verdicts carries the other boards' verdicts to module 0.
	verdicts *shard0Chan

	// LossyLinks lists the channels discovered to be persistently lossy.
	LossyLinks []string

	// procs[i] is module i's judging daemon; procs[0] is the detector
	// pass on module 0's board.
	procs []*sim.Proc
}

// Detection thresholds.
const (
	// HeartbeatInterval is how often each node publishes liveness along
	// its module's system thread.
	HeartbeatInterval = 100 * sim.Millisecond
	// DetectInterval is how often each board judges its slots and module
	// 0 applies the machine-wide rules.
	DetectInterval = 250 * sim.Millisecond
	// SuspectPhi and ConfirmPhi are the phi-accrual thresholds: a slot
	// whose suspicion reaches SuspectPhi is suspected, and the cut point
	// of a module is confirmed dead once its suspicion reaches
	// ConfirmPhi.
	SuspectPhi = 4
	ConfirmPhi = 8
	// HangTimeout is how long a beating slot's progress word may stay
	// frozen before the slot is a hang candidate.
	HangTimeout = 30 * sim.Second
	// LossyRetransmits is how many retransmits within one detect window
	// mark a channel as persistently lossy.
	LossyRetransmits = 8
)

// newDetector builds a detector for the machine, alarming through the
// given supervisor.
func newDetector(m *Machine, sv *Supervisor) *Detector {
	return &Detector{
		M:          m,
		sv:         sv,
		confirmed:  map[int]bool{},
		priorHangs: map[int]bool{},
		lastRtx:    make([]int64, len(m.Nodes)*link.LinksPerNode),
		lossy:      make([]bool, len(m.Nodes)*link.LinksPerNode),
		verdicts:   m.shard0Chans(sim.NewChan(m.K, "machine/verdicts", len(m.Modules)))[0],
	}
}

// DetectedDeath is the detector's verdict that a node is dead, raised
// through the supervisor alarm. Silence is how long the node had been
// quiet when confirmed — the detection latency.
type DetectedDeath struct {
	Node    int
	Silence sim.Duration
}

func (e *DetectedDeath) Error() string {
	return fmt.Sprintf("detector: node %d confirmed dead after %v of silence", e.Node, e.Silence)
}

// DetectedHang is the detector's verdict that a node is wedged: still
// beating, progress frozen for Stall.
type DetectedHang struct {
	Node  int
	Stall sim.Duration
}

func (e *DetectedHang) Error() string {
	return fmt.Sprintf("detector: node %d confirmed hung after %v without progress", e.Node, e.Stall)
}

// Suspend pauses evaluation (nestable). The supervisor suspends it
// around checkpoints and recovery: both flood the module threads for
// seconds, and the delayed beats would read as silence.
// Boards on every shard read the suspension, so it changes only in a
// Global section (or before the run).
func (d *Detector) Suspend() { d.susp++ }

// Resume re-enables evaluation and resets the silence baseline to now,
// so beats delayed during the suspension are forgiven rather than
// accrued.
func (d *Detector) Resume() {
	if d.susp > 0 {
		d.susp--
	}
	if d.susp == 0 {
		d.floor = d.M.K.Now()
		d.confirmed = map[int]bool{}
	}
}

// Start begins heartbeat publication on every module (heartbeats are
// opt-in; starting the detector is the opt) and launches the judging
// daemon of every board, each on its module's shard. It spawns on
// every shard, so call it in a Global section.
func (d *Detector) Start() {
	d.floor = d.M.K.Now()
	for _, mod := range d.M.Modules {
		mod.StartHeartbeats(HeartbeatInterval)
	}
	d.procs = []*sim.Proc{d.M.K.Every("machine/detector", DetectInterval, func(p *sim.Proc) {
		if d.susp == 0 {
			d.evaluate(p.Now())
		}
	})}
	for _, mod := range d.M.Modules[1:] {
		s := mod.Index
		d.procs = append(d.procs, d.M.Group.Shard(s).Every(fmt.Sprintf("mod%d/sys/judge", s), DetectInterval, func(p *sim.Proc) {
			if d.susp == 0 {
				d.verdicts.send(p, s, d.judge(p.Now(), mod))
			}
		}))
	}
}

// Stop kills every judging daemon and heartbeat daemon Start spawned.
// All of them wake on timers forever, so leaving any alive would keep
// the kernel's event queue non-empty and an unbounded Run would never
// drain.
func (d *Detector) Stop() {
	for _, p := range d.procs {
		p.Kill()
	}
	for _, mod := range d.M.Modules {
		mod.StopHeartbeats()
	}
}

// verdict is one system board's judgment of its own slots and links at
// one instant.
type verdict struct {
	mod int
	at  sim.Time // when the board judged
	// cut is the node at the module's cut point once its phi reached
	// ConfirmPhi, silent for silence; -1 when no slot is that quiet.
	cut     int
	silence sim.Duration
	// hangs lists the slots above any suspect whose progress has been
	// frozen past HangTimeout.
	hangs []hangCand
	// advanced reports that some image-carrying slot has advanced its
	// progress word.
	advanced bool
	lossy    []string // links newly found lossy
}

// hangCand is one slot whose progress has been frozen past HangTimeout
// while its beats keep arriving.
type hangCand struct {
	id       int
	adv      sim.Time // effective last-advance baseline
	stall    sim.Duration
	advanced bool // the slot itself had advanced before it froze
}

// evaluate is the detector pass on module 0's board: it judges module
// 0's own slots, takes the verdicts the other boards posted since the
// last pass, and applies the machine-wide rules.
func (d *Detector) evaluate(now sim.Time) {
	vs := []verdict{d.judge(now, d.M.Modules[0])}
	d.noteLossy(vs[0].lossy)
	for {
		x, ok := d.verdicts.ch.TryRecv()
		if !ok {
			break
		}
		// A lossy link is discovery only and stands however old; death
		// and hang evidence counts only when judged since the last
		// Resume.
		v := x.(verdict)
		d.noteLossy(v.lossy)
		if v.at >= d.floor {
			vs = append(vs, v)
		}
	}
	// While no image-carrying slot anywhere has advanced, frozen
	// progress means nothing (a workload that never publishes progress
	// must not be condemned); once peers are advancing, a slot that
	// never has is wedged, not slow.
	anyAdvanced := false
	for _, v := range vs {
		anyAdvanced = anyAdvanced || v.advanced
	}
	death := false
	var cands []hangCand
	for _, v := range vs {
		if v.cut >= 0 {
			// The cut point shadows the module's hang candidates and its
			// lower slots, which are re-judged after bypass.
			if !d.confirmed[v.cut] {
				d.confirmed[v.cut] = true
				death = true
				d.M.K.Count("heal.detect_events", 1)
				d.M.K.Count("heal.detect_ns", int64(v.silence/sim.Nanosecond))
				d.sv.post(0, &DetectedDeath{Node: v.cut, Silence: v.silence})
			}
			continue
		}
		for _, c := range v.hangs {
			if (c.advanced || anyAdvanced) && !d.confirmed[c.id] {
				cands = append(cands, c)
			}
		}
	}
	// Confirm at most ONE hang per pass, and none on a pass that
	// confirmed a death. A wedged board freezes not just its own
	// progress: peers blocked on it (a ring receive, a barrier) freeze
	// too, and from the board-level ledger the two are indistinguishable.
	// The heuristic picks the slot that froze EARLIEST (the victim stops
	// first; its dependents only stall when they reach the dependency),
	// breaking ties toward the higher slot as with the cut point. A
	// wrong pick is not fatal — the heal's rollback unblocks every false
	// suspect and the restart budget bounds the rounds — but only
	// because already-condemned slots are deprioritized below: after a
	// rollback the same tie recurs, so a pick without that memory would
	// repeat its mistake forever instead of converging on the victim.
	if !death && len(cands) > 0 {
		pool := cands
		var fresh []hangCand
		for _, c := range cands {
			if !d.priorHangs[c.id] {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) > 0 {
			pool = fresh // only re-condemn a past suspect once no one else is left
		}
		best := pool[0]
		for _, c := range pool[1:] {
			if c.adv < best.adv || (c.adv == best.adv && c.id > best.id) {
				best = c
			}
		}
		d.confirmed[best.id] = true
		d.priorHangs[best.id] = true
		d.M.K.Count("heal.detect_events", 1)
		d.M.K.Count("heal.detect_ns", int64(best.stall/sim.Nanosecond))
		d.M.K.Count("heal.hang_count", 1)
		d.sv.post(0, &DetectedHang{Node: best.id, Stall: best.stall})
	}
}

// judge runs the phi and hang rules over mod's own ledger at now and
// scans mod's links. It runs on mod's shard.
func (d *Detector) judge(now sim.Time, mod *module.Module) verdict {
	base := mod.Index * module.NodesPerModule
	v := verdict{mod: mod.Index, at: now, cut: -1, lossy: d.scanLossy(mod)}
	for slot := range mod.Nodes {
		if !mod.Bypassed(slot) && mod.Health(slot).Advanced {
			v.advanced = true
		}
	}
	// Walk from the top: the highest-indexed silent slot is the cut
	// point, and a suspect (phi past SuspectPhi, short of ConfirmPhi)
	// shadows everything below it too.
	for slot := len(mod.Nodes) - 1; slot >= 0; slot-- {
		if mod.Bypassed(slot) {
			continue
		}
		s := mod.Health(slot)
		if phi := d.phi(now, s); phi >= ConfirmPhi {
			v.cut, v.silence = base+slot, d.silence(now, s)
			break
		} else if phi >= SuspectPhi {
			break
		}
		// Slot is beating. Frozen progress while beats still arrive is a
		// hang candidate — either the slot had been advancing and
		// stopped, or peers are advancing and this slot never started (a
		// board wedged before its first phase), which module 0 decides.
		// Cold spares are exempt: their frozen progress is by design.
		if mod.ImageOf(slot) < 0 {
			continue
		}
		adv := max(s.LastAdvance, d.floor)
		if stall := now.Sub(adv); stall > HangTimeout {
			v.hangs = append(v.hangs, hangCand{id: base + slot, adv: adv, stall: stall, advanced: s.Advanced})
		}
	}
	return v
}

// phi returns the suspicion level of one slot: silence measured in
// units of its smoothed inter-beat gap, never less than the beat
// period. Beats queued behind a congested thread arrive in bursts, and
// their arrival gaps say nothing about how often the node beats.
func (d *Detector) phi(now sim.Time, s module.SlotHealth) float64 {
	return float64(d.silence(now, s)) / float64(max(s.EwmaGap, HeartbeatInterval))
}

// silence is the raw quiet time behind a confirmation.
func (d *Detector) silence(now sim.Time, s module.SlotHealth) sim.Duration {
	return now.Sub(max(s.LastBeat, d.floor))
}

// scanLossy returns the links of mod's nodes whose retransmit counters
// climbed by more than LossyRetransmits since the board's last pass,
// each once. The board reads its own links live, on its own shard.
func (d *Detector) scanLossy(mod *module.Module) []string {
	var found []string
	for _, nd := range mod.Nodes {
		for li, l := range nd.Links {
			i := nd.ID*link.LinksPerNode + li
			delta := l.Retransmits - d.lastRtx[i]
			d.lastRtx[i] = l.Retransmits
			if delta > LossyRetransmits && !d.lossy[i] {
				d.lossy[i] = true
				found = append(found, fmt.Sprintf("node%d/link%d", nd.ID, li))
			}
		}
	}
	return found
}

// noteLossy records links a board newly found lossy.
func (d *Detector) noteLossy(links []string) {
	if len(links) > 0 {
		d.LossyLinks = append(d.LossyLinks, links...)
		d.M.K.Count("heal.lossy_links", int64(len(links)))
	}
}
