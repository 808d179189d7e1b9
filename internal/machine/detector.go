package machine

import (
	"fmt"

	"tseries/internal/link"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// Detector is the machine-level failure detector. It lives (logically)
// on module 0's system board and evaluates, every DetectInterval, the
// heartbeat ledgers of every module — module 0's read locally, the
// others' shipped over the system ring as kindHealth summaries. It
// discovers three failure classes without being told by the fault plan:
//
//   - Crashes: a dead board beats no more. Because all thread traffic
//     flows one way through the module chain, a dead slot also silences
//     every lower slot; the detector therefore confirms only the
//     HIGHEST-indexed silent slot of a module — the cut point — and
//     lets the lower slots speak for themselves once the thread is
//     re-cabled around the corpse.
//   - Hangs: beats keep arriving but the progress word they carry has
//     frozen past HangTimeout on a node that had been advancing.
//   - Lossy links: a channel whose retransmit count climbs faster than
//     LossyRetransmits per detect window is recorded (discovery only —
//     the link layer already masks the loss).
//
// Suspicion is phi-accrual style: silence is measured in units of the
// per-slot EWMA inter-beat gap, so a slot that naturally beats slowly
// (thread congestion) is not condemned by a fixed timeout.
type Detector struct {
	M  *Machine
	R  RecoveryParams
	sv *Supervisor

	susp    int      // suspension depth
	floor   sim.Time // silence baseline after Resume
	started sim.Time

	confirmed map[int]bool // nodes already alarmed this round
	// priorHangs remembers every node ever condemned for a hang. Unlike
	// confirmed it survives Resume: a wrong hang pick is crashed,
	// repaired, and rolled back, which recreates the exact frozen-
	// progress tie that misled the pick — without a memory of past
	// convictions the detector would condemn the same innocent dependent
	// every round and the restart budget would drain without ever
	// reaching the true victim.
	priorHangs map[int]bool
	// lastRtx and lossy hold each link's retransmit count at the last
	// pass and its verdict, in the retransmit mirror's order.
	lastRtx []int64
	lossy   []bool

	// LossyLinks lists the channels discovered to be persistently lossy.
	LossyLinks []string

	proc *sim.Proc
}

// LossyRetransmits is how many retransmits within one detect window
// mark a channel as persistently lossy.
const LossyRetransmits = 8

// NewDetector builds a detector for the machine using its Spec.Recovery
// thresholds, alarming through the given supervisor.
func NewDetector(m *Machine, sv *Supervisor) *Detector {
	d := &Detector{
		M:          m,
		R:          m.Spec.Recovery,
		sv:         sv,
		confirmed:  map[int]bool{},
		priorHangs: map[int]bool{},
		lastRtx:    make([]int64, len(m.Nodes)*link.LinksPerNode),
		lossy:      make([]bool, len(m.Nodes)*link.LinksPerNode),
	}
	sv.det = d
	return d
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

// Suspend pauses evaluation (nestable). The supervisor suspends around
// checkpoints and the healer around recovery: both flood the module
// threads for seconds, and the delayed beats would read as silence.
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

// Start launches the evaluation daemon and begins heartbeat publication
// on every module (heartbeats are opt-in; starting the detector is the
// opt).
func (d *Detector) Start() {
	r := d.R
	d.started = d.M.K.Now()
	d.floor = d.started
	for _, mod := range d.M.Modules {
		mod.StartHeartbeats(r.HeartbeatInterval)
		if mod.Index != 0 && len(d.M.Modules) > 1 {
			mod.StartHealthPublisher(0, r.DetectInterval)
		}
	}
	d.proc = d.M.K.Every("machine/detector", r.DetectInterval, func(p *sim.Proc) {
		if d.susp == 0 {
			d.evaluate(p.Now())
		}
	})
}

// Stop kills the evaluation daemon and every heartbeat/publisher
// daemon Start spawned. All of them wake on timers forever, so leaving
// any alive would keep the kernel's event queue non-empty and an
// unbounded Run would never drain.
func (d *Detector) Stop() {
	if d.proc != nil {
		d.proc.Kill()
	}
	for _, mod := range d.M.Modules {
		mod.StopHeartbeats()
	}
}

// evaluate runs one detection pass over every module's freshest ledger.
func (d *Detector) evaluate(now sim.Time) {
	home := d.M.Modules[0]
	type modLedger struct {
		mod *module.Module
		hs  module.HealthSnapshot
	}
	ledgers := make([]modLedger, 0, len(d.M.Modules))
	// First pass: did ANY image-carrying slot ever advance its progress
	// word? While nothing has, frozen progress means nothing (a workload
	// that never publishes progress must not be condemned); once peers
	// are advancing, a slot that never has is wedged, not slow.
	anyAdvanced := false
	for _, mod := range d.M.Modules {
		var hs module.HealthSnapshot
		if mod.Index == 0 {
			hs = mod.HealthSnapshot()
		} else {
			var ok bool
			hs, ok = home.PeerHealth(mod.Index)
			if !ok || hs.Time < d.floor {
				continue // no fresh summary yet
			}
		}
		for _, s := range hs.Slots {
			if !s.Bypassed && s.Advanced {
				anyAdvanced = true
			}
		}
		ledgers = append(ledgers, modLedger{mod, hs})
	}
	death := false
	var cands []hangCand
	for _, l := range ledgers {
		cs, dd := d.evaluateModule(now, l.mod, l.hs, anyAdvanced)
		death = death || dd
		cands = append(cands, cs...)
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
	d.scanLossy()
}

// hangCand is one slot whose progress has been frozen past HangTimeout
// while its beats keep arriving.
type hangCand struct {
	id    int
	adv   sim.Time // effective last-advance baseline
	stall sim.Duration
}

// phi returns the suspicion level of one slot: silence measured in
// units of its smoothed inter-beat gap.
func (d *Detector) phi(now sim.Time, s module.SlotHealth) float64 {
	last := s.LastBeat
	if d.floor > last {
		last = d.floor
	}
	if d.started > last {
		last = d.started
	}
	gap := s.EwmaGap
	if gap <= 0 {
		gap = d.R.HeartbeatInterval
	}
	return float64(now.Sub(last)) / float64(gap)
}

// evaluateModule confirms at most one death (the module's cut point)
// and collects hang candidates for the machine-level pick.
func (d *Detector) evaluateModule(now sim.Time, mod *module.Module, hs module.HealthSnapshot, anyAdvanced bool) ([]hangCand, bool) {
	base := mod.Index * module.NodesPerModule
	var cands []hangCand
	// Walk from the top: the highest-indexed silent slot is the cut
	// point; anything below it is shadowed by the severed thread.
	for slot := len(hs.Slots) - 1; slot >= 0; slot-- {
		s := hs.Slots[slot]
		if s.Bypassed {
			continue
		}
		id := base + slot
		if phi := d.phi(now, s); phi >= d.R.ConfirmPhi {
			if !d.confirmed[id] {
				d.confirmed[id] = true
				sil := d.silence(now, s)
				d.M.K.Count("heal.detect_events", 1)
				d.M.K.Count("heal.detect_ns", int64(sil/sim.Nanosecond))
				d.sv.post(0, &DetectedDeath{Node: id, Silence: sil})
				return nil, true // lower slots are shadowed: re-evaluate after bypass
			}
			return nil, false
		} else if phi >= d.R.SuspectPhi {
			// Suspected but not yet condemned; it also shadows below.
			return cands, false
		}
		// Slot is beating. Frozen progress while beats still arrive is a
		// hang candidate — either the slot had been advancing and
		// stopped, or peers are advancing and this slot never started (a
		// board wedged before its first phase). Cold spares are exempt:
		// their frozen progress is by design.
		if !s.Spare && (s.Advanced || anyAdvanced) && !d.confirmed[id] {
			adv := s.LastAdvance
			if d.floor > adv {
				adv = d.floor
			}
			if d.started > adv {
				adv = d.started
			}
			if stall := now.Sub(adv); stall > d.R.HangTimeout {
				cands = append(cands, hangCand{id: id, adv: adv, stall: stall})
			}
		}
	}
	return cands, false
}

// silence is the raw quiet time behind a confirmation.
func (d *Detector) silence(now sim.Time, s module.SlotHealth) sim.Duration {
	last := s.LastBeat
	if d.floor > last {
		last = d.floor
	}
	if d.started > last {
		last = d.started
	}
	return now.Sub(last)
}

// scanLossy looks for channels whose retransmit counters climbed by
// more than LossyRetransmits since the last pass. Above one shard the
// counters belong to other shards, so the scan reads the barrier-synced
// retransmit mirror instead of the live links — at most one window
// stale, which is deterministic for a fixed partition.
func (d *Detector) scanLossy() {
	mirror := d.M.rtxMirror
	i := 0
	for _, nd := range d.M.Nodes {
		for li, l := range nd.Links {
			rtx := l.Retransmits
			if mirror != nil {
				rtx = mirror[i]
			}
			delta := rtx - d.lastRtx[i]
			d.lastRtx[i] = rtx
			if delta > LossyRetransmits && !d.lossy[i] {
				d.lossy[i] = true
				d.LossyLinks = append(d.LossyLinks, fmt.Sprintf("node%d/link%d", nd.ID, li))
				d.M.K.Count("heal.lossy_links", 1)
			}
			i++
		}
	}
}
