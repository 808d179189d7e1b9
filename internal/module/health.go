package module

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Self-monitoring. Each node runs a tiny heartbeat service that
// periodically injects a liveness frame into the module's system thread;
// because ALL thread traffic flows one direction through the chain, a
// dead or wedged board silences not just its own beats but everything
// from lower slots too — the system board sees a clean "cut point" at
// the highest-indexed silent slot. The board keeps a per-slot ledger of
// beat arrivals (with an EWMA of the inter-beat gap, so suspicion is
// measured in missed intervals rather than wall time) and of the
// progress word each beat carries. Boards other than module 0 ship a
// summary of their ledger to module 0 over the system ring, where the
// machine-level failure detector evaluates the whole machine.

// Thread/ring message kinds owned by the health layer.
const (
	kindBeat   = 7 // thread: [kindBeat, slot, progress u32 LE]
	kindHealth = 8 // ring: [kindHealth, dstMod, srcMod, hops, summary...]
)

// ProgressWord is the memory word index (last word of node RAM) that
// workloads bump to publish forward progress. The heartbeat service
// samples it; a node whose beats keep arriving while this word stays
// frozen is hung, not dead.
const ProgressWord = memory.Bytes/4 - 1

// healthHopBudget bounds how far a kindHealth frame may ride the ring
// before being dropped (a frame whose destination board died would
// otherwise circulate forever).
const healthHopBudget = 64

// slotHealth is the board's ledger entry for one thread slot.
type slotHealth struct {
	Beats       int64        // beats seen since boot
	LastBeat    sim.Time     // arrival of the most recent beat
	EwmaGap     sim.Duration // smoothed inter-beat gap
	Progress    uint32       // last published progress word
	LastAdvance sim.Time     // when Progress last changed
	Advanced    bool         // Progress changed at least once
}

type health struct {
	slots []slotHealth
}

func newHealth(n int) *health { return &health{slots: make([]slotHealth, n)} }

// noteBeat folds one arriving kindBeat frame into the ledger.
func (m *Module) noteBeat(now sim.Time, raw []byte) {
	if len(raw) < 6 {
		return
	}
	slot := int(raw[1])
	if slot < 0 || slot >= len(m.health.slots) {
		return
	}
	s := &m.health.slots[slot]
	prog := binary.LittleEndian.Uint32(raw[2:6])
	if s.Beats > 0 {
		gap := now.Sub(s.LastBeat)
		if s.EwmaGap == 0 {
			s.EwmaGap = gap
		} else {
			s.EwmaGap = (7*s.EwmaGap + gap) / 8
		}
	}
	s.Beats++
	s.LastBeat = now
	if prog != s.Progress || s.Beats == 1 {
		if prog != s.Progress {
			s.Advanced = true
		}
		s.Progress = prog
		s.LastAdvance = now
	}
}

// SlotHealth is the exported view of one slot's ledger entry.
type SlotHealth struct {
	Beats       int64
	LastBeat    sim.Time
	EwmaGap     sim.Duration
	Progress    uint32
	LastAdvance sim.Time
	Advanced    bool
	Bypassed    bool
	// Spare marks a cold spare: alive and beating but carrying no image,
	// so its progress word is legitimately frozen forever.
	Spare bool
}

// HealthSnapshot is a moment-in-time copy of a module's ledger, either
// read locally (module 0) or decoded from a ring summary frame.
type HealthSnapshot struct {
	Module int
	Time   sim.Time // when the ledger was sampled
	Slots  []SlotHealth
}

// HealthSnapshot samples the local ledger.
func (m *Module) HealthSnapshot() HealthSnapshot {
	hs := HealthSnapshot{Module: m.Index, Time: m.k.Now(), Slots: make([]SlotHealth, len(m.health.slots))}
	for i, s := range m.health.slots {
		hs.Slots[i] = SlotHealth{
			Beats:       s.Beats,
			LastBeat:    s.LastBeat,
			EwmaGap:     s.EwmaGap,
			Progress:    s.Progress,
			LastAdvance: s.LastAdvance,
			Advanced:    s.Advanced,
			Bypassed:    m.bypassed[i],
			Spare:       m.mapped[i] < 0 && !m.bypassed[i],
		}
	}
	return hs
}

// PeerHealth returns the most recent summary shipped from another
// module over the system ring, if one has arrived.
func (m *Module) PeerHealth(mod int) (HealthSnapshot, bool) {
	hs, ok := m.peerHealth[mod]
	return hs, ok
}

// StartHeartbeats starts one beat daemon per node. Each samples the
// node's progress word and injects a kindBeat frame into the thread
// every interval. Crashed boards stop beating (their thread channel is
// down); hung boards keep beating with a frozen progress word — that
// distinction is exactly what the detector keys on. Heartbeats are
// opt-in so fault-free experiments keep their exact fault-free timing.
func (m *Module) StartHeartbeats(interval sim.Duration) {
	if m.hbInterval != 0 {
		return
	}
	m.hbInterval = interval
	for i, nd := range m.Nodes {
		idx, n := i, nd
		m.hbProcs = append(m.hbProcs, m.k.Every(fmt.Sprintf("mod%d/n%d/beat", m.Index, idx), interval, func(p *sim.Proc) {
			if !n.Alive() || m.bypassed[idx] {
				return
			}
			frame := make([]byte, 6)
			frame[0] = kindBeat
			frame[1] = byte(idx)
			binary.LittleEndian.PutUint32(frame[2:6], n.Mem.PeekWord(ProgressWord))
			// A severed thread just drops the beat; the silence is the
			// signal.
			_ = n.Sublink(ThreadOutSublink).Send(p, frame)
		}))
	}
}

// StopHeartbeats kills every beat and publisher daemon this module
// started. Heartbeat daemons wake on a timer forever, so a run that
// started them must stop them before the kernel can drain its event
// queue and finish.
func (m *Module) StopHeartbeats() {
	for _, p := range m.hbProcs {
		p.Kill()
	}
	m.hbProcs = nil
	m.hbInterval = 0
}

// slotSummaryBytes is the wire size of one slot in a kindHealth frame:
// beats(8) lastBeat(8) ewma(8) progress(4) lastAdvance(8) flags(1).
const slotSummaryBytes = 37

// StartHealthPublisher starts a board daemon that ships the local
// ledger to module dstMod (the detector's home) over the system ring
// every interval. Module dstMod itself needs no publisher.
func (m *Module) StartHealthPublisher(dstMod int, interval sim.Duration) {
	m.hbProcs = append(m.hbProcs, m.k.Every(fmt.Sprintf("mod%d/sys/health", m.Index), interval, func(p *sim.Proc) {
		hs := m.HealthSnapshot()
		msg := make([]byte, 4+8, 4+8+len(hs.Slots)*slotSummaryBytes)
		msg[0] = kindHealth
		msg[1] = byte(dstMod)
		msg[2] = byte(m.Index)
		msg[3] = 0 // hops
		binary.LittleEndian.PutUint64(msg[4:12], uint64(hs.Time))
		for _, s := range hs.Slots {
			var b [slotSummaryBytes]byte
			binary.LittleEndian.PutUint64(b[0:8], uint64(s.Beats))
			binary.LittleEndian.PutUint64(b[8:16], uint64(s.LastBeat))
			binary.LittleEndian.PutUint64(b[16:24], uint64(s.EwmaGap))
			binary.LittleEndian.PutUint32(b[24:28], s.Progress)
			binary.LittleEndian.PutUint64(b[28:36], uint64(s.LastAdvance))
			var flags byte
			if s.Advanced {
				flags |= 1
			}
			if s.Bypassed {
				flags |= 2
			}
			if s.Spare {
				flags |= 4
			}
			b[36] = flags
			msg = append(msg, b[:]...)
		}
		// Ring severed: drop and retry next tick.
		_ = m.Sys.Link.Sublink(sysRingOut).Send(p, msg)
	}))
}

// acceptHealth decodes a kindHealth frame addressed to this board.
func (m *Module) acceptHealth(raw []byte) {
	if len(raw) < 12 {
		return
	}
	src := int(raw[2])
	hs := HealthSnapshot{Module: src, Time: sim.Time(binary.LittleEndian.Uint64(raw[4:12]))}
	body := raw[12:]
	for len(body) >= slotSummaryBytes {
		b := body[:slotSummaryBytes]
		hs.Slots = append(hs.Slots, SlotHealth{
			Beats:       int64(binary.LittleEndian.Uint64(b[0:8])),
			LastBeat:    sim.Time(binary.LittleEndian.Uint64(b[8:16])),
			EwmaGap:     sim.Duration(binary.LittleEndian.Uint64(b[16:24])),
			Progress:    binary.LittleEndian.Uint32(b[24:28]),
			LastAdvance: sim.Time(binary.LittleEndian.Uint64(b[28:36])),
			Advanced:    b[36]&1 != 0,
			Bypassed:    b[36]&2 != 0,
			Spare:       b[36]&4 != 0,
		})
		body = body[slotSummaryBytes:]
	}
	if prev, ok := m.peerHealth[src]; !ok || hs.Time >= prev.Time {
		m.peerHealth[src] = hs
	}
}
