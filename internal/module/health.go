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
// progress word each beat carries. The failure detector judges each
// board's ledger on that board's own shard (machine/detector.go); no
// ledger leaves its board.

// kindBeat is the thread message kind owned by the health layer:
// [kindBeat, slot, progress u32 LE].
const kindBeat = 7

// ProgressWord is the memory word index (last word of node RAM) that
// workloads bump to publish forward progress. The heartbeat service
// samples it; a node whose beats keep arriving while this word stays
// frozen is hung, not dead.
const ProgressWord = memory.Bytes/4 - 1

// SlotHealth is the board's ledger entry for one thread slot.
type SlotHealth struct {
	Beats       int64        // beats seen since boot
	LastBeat    sim.Time     // arrival of the most recent beat
	EwmaGap     sim.Duration // smoothed inter-beat gap
	Progress    uint32       // last published progress word
	LastAdvance sim.Time     // when Progress last changed
	Advanced    bool         // Progress changed at least once
}

// Health returns a copy of slot's ledger entry. Whether the slot is
// bypassed or a cold spare the module answers through Bypassed and
// ImageOf.
func (m *Module) Health(slot int) SlotHealth { return m.health[slot] }

// noteBeat folds one arriving kindBeat frame into the ledger.
func (m *Module) noteBeat(now sim.Time, raw []byte) {
	if len(raw) < 6 {
		return
	}
	slot := int(raw[1])
	if slot < 0 || slot >= len(m.health) {
		return
	}
	s := &m.health[slot]
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

// StopHeartbeats kills every beat daemon this module started.
// Heartbeat daemons wake on a timer forever, so a run that started them
// must stop them before the kernel can drain its event queue and
// finish.
func (m *Module) StopHeartbeats() {
	for _, p := range m.hbProcs {
		p.Kill()
	}
	m.hbProcs = nil
	m.hbInterval = 0
}
