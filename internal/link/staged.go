package link

import (
	"fmt"

	"tseries/internal/sim"
)

// Cross-shard sublink wiring for the conservative parallel kernel
// (sim.ShardGroup). A staged pair behaves like a Connect'ed pair — same
// wire occupancy, same CRC/ack/retransmit protocol, same
// per-frame timing — but the two ends live on different shard kernels,
// so the frame itself travels through an XChan staged edge and the
// sender's view of the remote end's outage state is a mirror refreshed
// at window barriers rather than a direct read.
//
// Everything the send protocol decides — corruption, nack, undetected
// delivery — is already decided on the sender side (the injector runs
// at the transmitting link), so a staged attempt computes the outcome
// locally at wire-grant time and posts the delivery with the frame's
// own transfer time; the receiver sees an ordinary inbox message. The
// one genuinely remote input, "has the peer stopped acknowledging",
// comes from the barrier-synced mirror: a sender learns of a remote
// outage at most one window (= one lookahead) late, which is
// deterministic for a fixed partition and worker-invariant.
type stagedPeer struct {
	x      *sim.XChan // delivers Messages into the remote end's inbox; nil for a local peer
	remote *Sublink   // the far end; touched only at barriers (mirror sync)

	// downMirror is the barrier-synced copy of remote.down. It is read
	// by the owning shard mid-window and written only at barriers, when
	// every shard is quiescent.
	downMirror bool
}

// ConnectStaged cross-wires two sublinks on different shard kernels
// into a bidirectional channel. ab must be a staged edge delivering
// into b's inbox, ba one delivering into a's inbox (built with
// ShardGroup.ConnectInto and a latency of at most Lookahead — the
// conservative floor every frame's real transfer time meets). Both
// sublinks must be unconnected.
func ConnectStaged(a, b *Sublink, ab, ba *sim.XChan) error {
	if a == b {
		return fmt.Errorf("link: cannot connect %s to itself", a.Name())
	}
	if a.Connected() || b.Connected() {
		return fmt.Errorf("link: sublink already connected (%s ↔ %s)", a.Name(), b.Name())
	}
	if ab == nil || ba == nil {
		return fmt.Errorf("link: staged pair %s ↔ %s needs both edges", a.Name(), b.Name())
	}
	if ab.Latency() > Lookahead || ba.Latency() > Lookahead {
		return fmt.Errorf("link: staged pair %s ↔ %s: edge latency above the link lookahead %v", a.Name(), b.Name(), Lookahead)
	}
	a.staged = stagedPeer{x: ab, remote: b}
	b.staged = stagedPeer{x: ba, remote: a}
	a.parent.k.NoteChange()
	b.parent.k.NoteChange()
	return nil
}

// SyncStagedMirror refreshes the sender-side outage mirror from the
// remote end's actual state. It must be called only when both shards
// are quiescent — at a ShardGroup window barrier.
func (s *Sublink) SyncStagedMirror() {
	if s.staged.x != nil {
		s.staged.downMirror = s.staged.remote.down
	}
}

// attemptStaged is the cross-shard variant of attempt: same timing and
// outcome logic, but the remote outage state comes from the mirror and
// the delivery is staged through the edge at wire-grant time, arriving
// exactly one frame-transfer-time later — as it would on a local wire.
func (s *Sublink) attemptStaged(p *sim.Proc, frame []byte, wire int) (delivered, acked bool) {
	l := s.parent
	if s.down || s.staged.downMirror {
		l.wire.Use(p, DMAStartup+AckTimeout)
		l.Timeouts++
		return false, false
	}
	dur := TransferTime(wire)
	ok := true
	l.wire.UseFunc(p, dur, func() {
		var data []byte
		if data, ok = s.cross(frame, wire); ok {
			s.staged.x.PostDelayed(Message{Data: data}, dur)
		}
	})
	return ok, true
}
