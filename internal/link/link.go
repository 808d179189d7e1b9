// Package link models the T Series inter-node communication hardware:
// four bidirectional serial links per control processor, each carrying
// every 8-bit byte with two synchronisation bits and one stop bit and
// requiring two acknowledge bits from the receiver — a maximum
// unidirectional payload bandwidth of just over 0.5 MB/s per link, over
// 4 MB/s for the four links together. Transfers run by DMA with a startup
// time of about 5 µs.
//
// Each physical link is multiplexed four ways, giving 16 bidirectional
// sublinks per node that divide the parent link's bandwidth. Sublinks are
// the unit of wiring: the machine builder cross-connects sublink pairs to
// realise the hypercube, the system-board thread, and external I/O.
package link

import (
	"errors"
	"fmt"
	"strconv"

	"tseries/internal/sim"
)

// Protocol constants.
const (
	// BitsPerByte is the wire cost of one payload byte: 8 data + 2 sync
	// + 1 stop, plus the 2-bit acknowledge from the receiver.
	BitsPerByte = 8 + 2 + 1 + 2
	// SublinksPerLink is the multiplexing factor of each physical link.
	SublinksPerLink = 4
	// LinksPerNode is the number of physical links on a control processor.
	LinksPerNode = 4
	// SublinksPerNode is the total logical channel count (16).
	SublinksPerNode = LinksPerNode * SublinksPerLink
)

// BitTime is one serial bit period. The nominal signalling rate is
// 7.5 Mbit/s, so a byte costs 13 bit times ≈ 1.733 µs and the payload
// bandwidth is ≈ 0.577 MB/s — the paper's "over 0.5 MB/s per link".
const BitTime = 133333 * sim.Picosecond

// ByteTime is the wire time of one payload byte including the handshake.
const ByteTime = BitsPerByte * BitTime

// DMAStartup is the fixed cost of arming a link DMA transfer.
const DMAStartup = 5 * sim.Microsecond

// Lookahead is the guaranteed minimum latency of any inter-node
// transfer: even a zero-payload frame pays the DMA startup plus one
// byte of wire time. A conservative parallel scheduler (sim.ShardGroup)
// may safely use it as the cross-shard synchronization window for any
// partition whose shards interact only through links — no event sent
// through a link at time t can affect another node before t+Lookahead.
const Lookahead = DMAStartup + ByteTime

// Reliability constants. The wire protocol already carries two
// acknowledge bits per byte; on top of that each DMA frame carries a
// CRC-32 (crc.go), and the receiver's final acknowledge doubles as an
// ack/nack for the whole frame. A sender that sees a nack (CRC
// failure) or no acknowledge at all (dead wire or dead peer) retries
// with exponential backoff, and gives up with a DownError once
// MaxSendAttempts transmissions have failed.
const (
	// MaxSendAttempts bounds retransmission of one frame.
	MaxSendAttempts = 8
	// AckTimeout is how long a sender waits for the first acknowledge
	// bits before declaring an attempt lost — a small multiple of the
	// byte time, since acknowledges are interleaved per byte.
	AckTimeout = 64 * ByteTime
	// MaxBackoff caps the exponential retransmit backoff.
	MaxBackoff = 8 * sim.Millisecond
)

// RetryBackoff is the wait before retransmit attempt n+1 (n ≥ 1).
func RetryBackoff(attempt int) sim.Duration {
	d := AckTimeout << uint(attempt-1)
	if d > MaxBackoff {
		d = MaxBackoff
	}
	return d
}

// Injector lets a fault plan damage frames in flight. Corrupt is
// called once per transmission attempt of an n-byte frame on the named
// sublink. It returns the ascending positions of the bits the wire
// inverts, where position 8b+j is bit 1<<j of byte b, or nil when the
// frame crosses clean. The injector never sees the payload.
type Injector interface {
	Corrupt(sublink string, n int) []int
}

// ErrNotConnected reports a Send on a sublink with no peer: one never
// wired, or one a Rewire left orphaned.
var ErrNotConnected = errors.New("link: sublink not connected")

// ErrEmptyFrame reports a Send of a zero-length frame.
var ErrEmptyFrame = errors.New("link: empty frame")

// DownError reports that a transfer was abandoned after exhausting its
// retransmit budget: the wire is cut or the peer has stopped
// acknowledging.
type DownError struct {
	Sublink  string
	Attempts int
}

func (e *DownError) Error() string {
	return fmt.Sprintf("link: %s down (no acknowledge after %d attempts)", e.Sublink, e.Attempts)
}

// IsDown reports whether err is (or wraps) a DownError.
func IsDown(err error) bool {
	var de *DownError
	return errors.As(err, &de)
}

// EffectiveBandwidth reports the steady-state unidirectional payload
// bandwidth of one link in bytes per second.
func EffectiveBandwidth() float64 {
	return 1 / ByteTime.Seconds()
}

// Message is one DMA transfer's payload.
type Message struct {
	Data []byte
}

// Link is one node's driver for a single physical serial link. Its
// outbound wire is a serial resource: the four outbound sublinks
// multiplexed onto it divide the available bandwidth. (The inbound
// direction is owned by the remote ends' outbound wires.) The four
// sublinks live inside the Link, so a link and its channels are one
// host object.
type Link struct {
	Name     string
	k        *sim.Kernel
	wire     *sim.Resource
	subs     [SublinksPerLink]Sublink
	injector Injector
	changes  int64 // wiring and outage transitions; see Changes

	BytesSent int64
	Transfers int64

	// Fault accounting.
	Corrupted   int64 // frames damaged on the wire
	Undetected  int64 // damaged frames the CRC failed to catch
	Retransmits int64 // extra transmissions after a nack or timeout
	Timeouts    int64 // attempts lost to a dead wire or dead peer
	Drops       int64 // sends abandoned with a DownError
}

// Changes counts the wiring and outage transitions of this link's
// sublinks. Counts only grow, so a sum of them over a set of links
// moves exactly when one of those links changed: routing layers cache
// reachability against such a sum. Every transition runs before the
// run starts, on the link's own shard, or at a window barrier, so a sum
// taken on that shard or at a barrier needs no synchronisation.
func (l *Link) Changes() int64 { return l.changes }

// SetInjector attaches a fault injector to every transfer on this
// link's outbound wire (nil detaches).
func (l *Link) SetInjector(inj Injector) { l.injector = inj }

// SetDown severs (true) or restores (false) all four sublinks at once —
// what a node crash or a physical cable fault does.
func (l *Link) SetDown(down bool) {
	changed := false
	for i := range l.subs {
		if sub := &l.subs[i]; sub.down != down {
			sub.down = down
			changed = true
		}
	}
	if changed {
		l.changes++
	}
}

// Sublink is one of the four multiplexed logical channels of a physical
// link. It is connected point-to-point to a peer sublink on another node.
type Sublink struct {
	parent *Link
	name   string
	peer   *Sublink
	staged stagedPeer // cross-shard peer (see staged.go); staged.x is nil when local
	inbox  *sim.Chan
	down   bool // outage: this end no longer drives or acknowledges
}

// NewLink creates a physical link and its four sublinks.
func NewLink(k *sim.Kernel, name string) *Link {
	l := &Link{Name: name, k: k, wire: sim.NewResource(k, name+"/wire", 1)}
	for i := range l.subs {
		// One string serves both names: the sublink's is the inbox's
		// minus its "/in" suffix.
		in := name + "/sub" + strconv.Itoa(i) + "/in"
		l.subs[i] = Sublink{
			parent: l,
			name:   in[:len(in)-len("/in")],
			inbox:  sim.NewChan(k, in, 1024),
		}
	}
	return l
}

// Sublink returns logical channel i (0..3).
func (l *Link) Sublink(i int) *Sublink { return &l.subs[i] }

// Wire exposes the outbound serial resource (for utilisation reports).
func (l *Link) Wire() *sim.Resource { return l.wire }

// Connect cross-wires two sublinks into a bidirectional channel. Both
// must be unconnected and distinct — a sublink cannot be wired to
// itself.
func Connect(a, b *Sublink) error {
	if a == b {
		return fmt.Errorf("link: cannot connect %s to itself", a.Name())
	}
	if a.Connected() || b.Connected() {
		return fmt.Errorf("link: sublink already connected (%s ↔ %s)", a.Name(), b.Name())
	}
	a.peer, b.peer = b, a
	a.parent.changes++
	b.parent.changes++
	return nil
}

// Rewire disconnects a and b from their current peers (if any) and
// cross-wires them to each other. This is the maintenance operation
// behind thread bypass: when a node on a module's system thread dies,
// the chain is re-cabled around it by rewiring its upstream neighbor's
// outbound sublink directly to its downstream neighbor's inbound one.
// The orphaned peers are left unconnected.
func Rewire(a, b *Sublink) error {
	if a == b {
		return fmt.Errorf("link: cannot rewire %s to itself", a.Name())
	}
	for _, s := range []*Sublink{a, b} {
		if s.peer != nil {
			s.peer.parent.changes++
			s.peer.peer = nil
			s.peer = nil
		}
	}
	return Connect(a, b)
}

// Name identifies the sublink for tracing.
func (s *Sublink) Name() string { return s.name }

// Connected reports whether the sublink has a peer (local or staged).
func (s *Sublink) Connected() bool { return s.peer != nil || s.staged.x != nil }

// Peer returns the remote sublink, or nil.
func (s *Sublink) Peer() *Sublink { return s.peer }

// SetDown severs (true) or restores (false) this end of the channel.
// While either end is down the wire carries no acknowledges, so every
// send attempt on the pair times out.
func (s *Sublink) SetDown(down bool) {
	if s.down != down {
		s.down = down
		s.parent.changes++
	}
}

// Down reports whether this end has been severed.
func (s *Sublink) Down() bool { return s.down }

// Up reports whether the channel is usable end to end: connected and
// neither side severed. For a staged (cross-shard) pair the remote
// side's state is the barrier-synced mirror.
func (s *Sublink) Up() bool {
	if s.staged.x != nil {
		return !s.down && !s.staged.downMirror
	}
	return s.peer != nil && !s.down && !s.peer.down
}

// Send transfers data to the peer sublink, blocking the caller for the
// DMA startup plus the serial wire time. Sublinks sharing a physical
// link queue for the wire, dividing its bandwidth. It is SendWire with
// a wire length of len(data).
func (s *Sublink) Send(p *sim.Proc, data []byte) error {
	return s.SendWire(p, data, len(data))
}

// SendWire transfers a wire-byte frame whose wire image is data
// followed by zero bytes up to wire. Everything the link charges or
// counts uses wire: the wire time, BytesSent and the link.bytes
// counter, the frame length the injector sees, and the CRC syndrome. A
// zero tail left off data therefore costs the simulated machine
// exactly what the dense frame would and the host nothing. Every
// receiver of such frames knows their wire length from their kind.
//
// SendWire takes ownership of data. The sender must not modify it
// afterwards; the receiver gets the same backing array and owns it. A
// frame whose damage slipped past the CRC arrives as a damaged dense
// copy of length wire instead, so the sender's bytes are never
// written. When SendWire returns an error nothing was delivered and
// data is still the caller's.
//
// Delivery is reliable against wire corruption: each frame carries a
// checksum, a corrupted frame is nacked by the receiver and
// retransmitted at once (the nack proves the peer is alive), and a
// frame that draws no acknowledge at all (severed wire, crashed peer)
// is retried with exponential backoff until MaxSendAttempts silent
// attempts, after which SendWire returns a DownError. With no fault
// injector attached and both ends up, the timing and behaviour are
// identical to a bare transfer.
func (s *Sublink) SendWire(p *sim.Proc, data []byte, wire int) error {
	if !s.Connected() {
		return fmt.Errorf("%w: %s", ErrNotConnected, s.name)
	}
	if wire == 0 {
		return fmt.Errorf("%w on %s", ErrEmptyFrame, s.name)
	}
	if wire < len(data) {
		return fmt.Errorf("link: %d-byte frame longer than its %d-byte wire length on %s", len(data), wire, s.name)
	}
	l := s.parent
	timeouts := 0
	for {
		delivered, acked := s.attempt(p, data, wire)
		if delivered {
			return nil
		}
		l.Retransmits++
		if acked {
			// Nack: the receiver rejected a damaged frame but is
			// plainly alive, so retransmit immediately and do not
			// charge the outage budget.
			continue
		}
		timeouts++
		if timeouts >= MaxSendAttempts {
			l.Drops++
			return &DownError{Sublink: s.name, Attempts: timeouts}
		}
		p.Wait(RetryBackoff(timeouts))
	}
}

// attempt performs one transmission of a wire-byte frame carrying
// frame. delivered means the frame reached the peer; acked
// distinguishes a nack (CRC reject from a live peer) from silence
// (dead wire).
func (s *Sublink) attempt(p *sim.Proc, frame []byte, wire int) (delivered, acked bool) {
	if s.staged.x != nil {
		return s.attemptStaged(p, frame, wire)
	}
	l := s.parent
	if s.down || s.peer.down {
		// The DMA arms and drives the first bytes, but no acknowledge
		// bits ever come back.
		l.wire.Use(p, DMAStartup+AckTimeout)
		l.Timeouts++
		return false, false
	}
	l.wire.Use(p, TransferTime(wire))
	data, ok := s.cross(frame, wire)
	if !ok {
		return false, true
	}
	s.peer.inbox.Send(p, Message{Data: data})
	return true, true
}

// cross accounts one crossing of the wire by a wire-byte frame
// carrying frame and applies the fault injector. It returns the bytes
// the receiver ends up with and whether the receiver's CRC accepts
// them; false is a nack.
func (s *Sublink) cross(frame []byte, wire int) ([]byte, bool) {
	l := s.parent
	l.BytesSent += int64(wire)
	l.k.Count("link.bytes", int64(wire))
	l.Transfers++
	if l.injector == nil {
		return frame, true
	}
	flips := l.injector.Corrupt(s.name, wire)
	if len(flips) == 0 {
		return frame, true
	}
	l.Corrupted++
	if caught(wire, flips) {
		return nil, false
	}
	// The damage slipped past the CRC: delivered wrong, counted as an
	// uncorrected error.
	l.Undetected++
	return damage(frame, wire, flips), true
}

// Flush discards any messages queued in this sublink's inbox and
// reports how many were dropped. Recovery uses it to clear stale
// traffic before replaying from a checkpoint.
func (s *Sublink) Flush() int {
	n := 0
	for {
		if _, ok := s.inbox.TryRecv(); !ok {
			return n
		}
		n++
	}
}

// Serve starts a daemon on the sublink's kernel that runs handle on
// every payload arriving here, in arrival order. While the inbox is
// empty the daemon holds no goroutine (sim.Kernel.Serve).
func (s *Sublink) Serve(name string, handle func(p *sim.Proc, data []byte)) *sim.Proc {
	return s.parent.k.Serve(name, s.inbox, func(p *sim.Proc, v interface{}) {
		handle(p, v.(Message).Data)
	})
}

// Recv blocks until a message arrives on this sublink and returns its
// payload.
func (s *Sublink) Recv(p *sim.Proc) []byte {
	return s.inbox.Recv(p).(Message).Data
}

// TryRecv returns a payload if one is already queued.
func (s *Sublink) TryRecv() ([]byte, bool) {
	v, ok := s.inbox.TryRecv()
	if !ok {
		return nil, false
	}
	return v.(Message).Data, true
}

// Ready reports whether a Recv would not block.
func (s *Sublink) Ready() bool { return s.inbox.Ready() }

// Inbox exposes the underlying channel for ALT/select constructs.
func (s *Sublink) Inbox() *sim.Chan { return s.inbox }

// TransferTime predicts the wall time of an uncontended n-byte transfer.
func TransferTime(n int) sim.Duration {
	return DMAStartup + sim.Duration(n)*ByteTime
}
