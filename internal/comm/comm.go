// Package comm is the message-passing library of the simulated T Series:
// typed point-to-point messages over the hypercube sublinks with
// store-and-forward e-cube routing, plus the standard hypercube
// collectives (broadcast, reduce, all-reduce, gather, scatter, barrier,
// all-to-all) built by recursive doubling and binomial trees — the
// communication patterns the paper's Figure 3 mappings exist to serve.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// header is the wire prefix of every message.
const headerBytes = 16

// tagMask limits tags to 24 bits: the top byte of the tag word carries
// the hop counter that bounds detour routing.
const tagMask = 0xffffff

// Network is a set of nodes wired as a binary n-cube with a router
// process per node per dimension.
type Network struct {
	Dim   int
	Nodes []*node.Node
	eps   []*Endpoint

	// topo is the network's topology view (see route.go). frozen marks
	// a network spread over several shards, whose view only SyncView
	// rebuilds, at window barriers; a one-shard network rebuilds its
	// view on read once its links changed. frozen is the one place comm
	// tells shard counts apart.
	topo   *topology
	frozen bool
}

// Endpoint is one node's interface to the network.
type Endpoint struct {
	net *Network
	id  int
	nd  *node.Node

	mailboxes map[int]*sim.Chan // tag → delivery queue

	// Counters.
	Sent, Received, Forwarded int64
	BytesSent                 int64

	// Fault-aware routing counters.
	Detours    int64 // forwards over a non-e-cube (detour) dimension
	RouteDrops int64 // messages abandoned: hop budget spent or no usable channel
}

// CrashedError reports an operation addressed to a node that is out of
// service.
type CrashedError struct{ Node int }

func (e *CrashedError) Error() string {
	return fmt.Sprintf("comm: node %d has crashed", e.Node)
}

// IsCrashed reports whether err is (or wraps) a CrashedError.
func IsCrashed(err error) bool {
	var ce *CrashedError
	return errors.As(err, &ce)
}

// delivered is what lands in a mailbox.
type delivered struct {
	src     int
	payload []byte
}

// cubeSublink maps a cube dimension to a logical sublink, spreading the
// first dimensions across the four physical links so the three
// intramodule connections (dims 0..2) ride three separate wires — that
// is what makes the module's aggregate internode bandwidth exceed
// 12 MB/s. Logical sublinks 14 and 15 (link 3, sublinks 2 and 3) stay
// reserved for system communication, so a 14-cube exactly exhausts the
// remaining channels.
var cubeSublink = [cube.MaxDim]int{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 3, 7, 11}

// CubeSublink reports which logical sublink carries cube dimension d.
func CubeSublink(d int) int { return cubeSublink[d] }

// BuildCube wires the nodes' sublinks into a binary n-cube using the
// CubeSublink channel assignment, and starts a daemon router on every
// (node, dimension) pair, on that node's own kernel. Every node must be
// built on a shard kernel of g. An edge whose two nodes share a shard is
// an ordinary link.Connect pair; a cross-shard edge becomes a staged
// pair (link.ConnectStaged) whose frames travel through XChan edges with
// the link-layer lookahead — the DMA startup plus one byte time that
// even the smallest frame pays, which is what bounds the group's
// windows.
//
// Shard ownership rule: every router daemon, mailbox, and counter of a
// node lives on that node's kernel and is only ever touched from there.
// The one piece of genuinely global state — which nodes are alive and
// which channels are up — is read from the network's topology view
// (see route.go), which above one shard is frozen at window barriers.
func BuildCube(g *sim.ShardGroup, nodes []*node.Node) (*Network, error) {
	dim, err := cube.DimOf(len(nodes))
	if err != nil {
		return nil, err
	}
	if dim > cube.MaxDim {
		return nil, fmt.Errorf("comm: %d-cube exceeds the %d-cube wiring maximum", dim, cube.MaxDim)
	}
	n := &Network{Dim: dim, Nodes: nodes}
	shardOf := make(map[*sim.Kernel]int, g.Shards())
	for s := 0; s < g.Shards(); s++ {
		shardOf[g.Shard(s)] = s
	}
	shard := make([]int, len(nodes))
	for id, nd := range nodes {
		if nd.ID != id {
			return nil, fmt.Errorf("comm: node %d has ID %d; nodes must be in cube order", id, nd.ID)
		}
		s, ok := shardOf[nd.K]
		if !ok {
			return nil, fmt.Errorf("comm: node %d not built on a shard kernel of the group", id)
		}
		shard[id] = s
		n.eps = append(n.eps, &Endpoint{
			net: n, id: id, nd: nd,
			mailboxes: map[int]*sim.Chan{},
		})
	}
	// Wire dimension d between id and id^(1<<d), once per edge. A
	// cross-shard edge stages each direction through an XChan that
	// delivers straight into the far sublink's inbox.
	for id := range nodes {
		for d := 0; d < dim; d++ {
			nb := cube.Neighbor(id, d)
			if nb < id {
				continue
			}
			a := nodes[id].Sublink(CubeSublink(d))
			b := nodes[nb].Sublink(CubeSublink(d))
			sa, sb := shard[id], shard[nb]
			if sa == sb {
				if err := link.Connect(a, b); err != nil {
					return nil, err
				}
				continue
			}
			ab := g.ConnectInto(sa, sb, link.Lookahead, b.Inbox())
			ba := g.ConnectInto(sb, sa, link.Lookahead, a.Inbox())
			if err := link.ConnectStaged(a, b, ab, ba); err != nil {
				return nil, err
			}
		}
	}
	// Routers: one daemon per (node, dimension), serving that
	// dimension's sublink. Each router knows its own dimension so the
	// forwarder can avoid bouncing a message straight back.
	for id := range nodes {
		ep := n.eps[id]
		prefix := "router/n" + strconv.Itoa(id) + "/d"
		for d := 0; d < dim; d++ {
			arriveDim := d
			nodes[id].Sublink(CubeSublink(d)).Serve(prefix+strconv.Itoa(d), func(p *sim.Proc, raw []byte) {
				ep.route(p, raw, arriveDim)
			})
		}
	}
	n.frozen = g.Shards() > 1
	n.SyncView()
	return n, nil
}

// alive reports whether node id is in service.
func (n *Network) alive(id int) bool { return n.view().alive[id] }

// anyCrashed reports whether any node is out of service. While false —
// the overwhelmingly common case — every code path is identical to the
// fault-free simulator.
func (n *Network) anyCrashed() bool { return n.view().anyDead }

// lowestAlive returns the smallest id of an in-service node, or -1.
func (n *Network) lowestAlive() int { return n.view().lowest }

// Flush discards all in-flight traffic: every sublink inbox and every
// endpoint mailbox. The recovery supervisor calls it after halting the
// machine so the replay starts from silence. It reports how many
// messages were dropped.
func (n *Network) Flush() int {
	total := 0
	for _, nd := range n.Nodes {
		for i := 0; i < link.SublinksPerNode; i++ {
			total += nd.Sublink(i).Flush()
		}
	}
	for _, ep := range n.eps {
		for _, mb := range ep.mailboxes {
			for {
				if _, ok := mb.TryRecv(); !ok {
					break
				}
				total++
			}
		}
	}
	return total
}

// Endpoint returns node id's network interface.
func (n *Network) Endpoint(id int) *Endpoint { return n.eps[id] }

// Size reports the number of nodes.
func (n *Network) Size() int { return len(n.eps) }

func (e *Endpoint) mailbox(tag int) *sim.Chan {
	mb, ok := e.mailboxes[tag]
	if !ok {
		mb = sim.NewChan(e.nd.K, "n"+strconv.Itoa(e.id)+"/mbox"+strconv.Itoa(tag), 1<<20)
		e.mailboxes[tag] = mb
	}
	return mb
}

// putHeader writes the wire prefix of a frame carrying an n-byte
// payload: src, dst, tag, len (uint32 LE). The top byte of the tag word
// (offset 11) is the hop counter.
func putHeader(buf []byte, src, dst, tag, n int) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(src))
	binary.LittleEndian.PutUint32(buf[4:], uint32(dst))
	binary.LittleEndian.PutUint32(buf[8:], uint32(tag)&tagMask)
	binary.LittleEndian.PutUint32(buf[12:], uint32(n))
}

func decode(raw []byte) (src, dst, tag int, payload []byte) {
	src = int(binary.LittleEndian.Uint32(raw[0:]))
	dst = int(binary.LittleEndian.Uint32(raw[4:]))
	tag = int(binary.LittleEndian.Uint32(raw[8:]) & tagMask)
	n := int(binary.LittleEndian.Uint32(raw[12:]))
	return src, dst, tag, raw[headerBytes : headerBytes+n]
}

func msgHops(raw []byte) int { return int(raw[11]) }
func bumpHops(raw []byte)    { raw[11]++ }

// maxHops bounds store-and-forward per message. E-cube needs at most
// Dim hops; detours around failed channels earn a generous multiple,
// after which the message is dropped rather than routed forever.
func (e *Endpoint) maxHops() int { return 3*e.net.Dim + 4 }

// route handles a message arriving at this node: deliver locally or
// forward toward dst (store-and-forward). arriveDim is the dimension
// the message came in on, or -1 when it was injected locally.
func (e *Endpoint) route(p *sim.Proc, raw []byte, arriveDim int) {
	src, dst, tag, payload := decode(raw)
	if dst == e.id {
		e.Received++
		e.mailbox(tag).Send(p, delivered{src: src, payload: payload})
		return
	}
	if msgHops(raw) >= e.maxHops() {
		e.RouteDrops++
		return
	}
	e.Forwarded++
	if e.forward(p, raw, dst, arriveDim) != nil {
		// A router daemon has nobody to report to; the drop shows up in
		// the counters and, eventually, as a timeout at the application.
		e.RouteDrops++
	}
}

// forward picks the outbound channel for a message to dst and sends it.
// On a healthy network the choice is pure e-cube: the lowest differing
// dimension, whose channel is up, so exactly one Send runs. With any
// channel down or node crashed, the choice comes from the topology
// view's live-graph next-hop table instead, which either lies on a
// shortest live path or proves the destination unreachable (a typed
// UnreachableError). A channel that changes state after the view was
// built can fail the table's hop with a DownError; the candidates loop,
// which reads this node's own channel state, then gets one try.
func (e *Endpoint) forward(p *sim.Proc, raw []byte, dst, arriveDim int) error {
	diff := e.id ^ dst
	bumpHops(raw)
	t := e.net.view()
	if t.healthy {
		return e.sendCandidates(p, raw, dst, arriveDim, diff)
	}
	d := t.nextHop[e.id][dst]
	if d < 0 {
		return &UnreachableError{Src: e.id, Dst: dst}
	}
	err := e.sendDim(p, raw, int(d), diff)
	if err == nil || !link.IsDown(err) {
		return err
	}
	if e.sendCandidates(p, raw, dst, arriveDim, diff) == nil {
		return nil
	}
	return &UnreachableError{Src: e.id, Dst: dst}
}

// sendDim sends raw on dimension d, counting a detour when d corrects
// no differing address bit.
func (e *Endpoint) sendDim(p *sim.Proc, raw []byte, d, diff int) error {
	err := e.nd.Sublink(CubeSublink(d)).Send(p, raw)
	if err == nil && diff&(1<<uint(d)) == 0 {
		e.Detours++
	}
	return err
}

// sendCandidates walks the deterministic candidate order, sending on
// the first channel that takes the frame.
func (e *Endpoint) sendCandidates(p *sim.Proc, raw []byte, dst, arriveDim, diff int) error {
	var lastErr error
	var buf [cube.MaxDim]int
	for _, d := range e.candidates(buf[:0], dst, arriveDim) {
		err := e.sendDim(p, raw, d, diff)
		if err == nil || !link.IsDown(err) {
			return err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("comm: node %d has no usable channel toward %d", e.id, dst)
	}
	return lastErr
}

// candidates lists outbound dimensions to try, in deterministic
// preference order: e-cube dimensions (lowest differing first) that are
// up, excluding the arrival dimension; then the arrival dimension if it
// is a differing one (progress back the way we came still shortens the
// route); and last, up non-differing dimensions — true detours. The
// arrival dimension is never used as a detour: that would bounce the
// message straight back. The list is appended to cand.
func (e *Endpoint) candidates(cand []int, dst, arriveDim int) []int {
	diff := e.id ^ dst
	for d := 0; d < e.net.Dim; d++ {
		if diff&(1<<uint(d)) != 0 && d != arriveDim && e.nd.Sublink(CubeSublink(d)).Up() {
			cand = append(cand, d)
		}
	}
	if arriveDim >= 0 && diff&(1<<uint(arriveDim)) != 0 && e.nd.Sublink(CubeSublink(arriveDim)).Up() {
		cand = append(cand, arriveDim)
	}
	for d := 0; d < e.net.Dim; d++ {
		if diff&(1<<uint(d)) == 0 && d != arriveDim && e.nd.Sublink(CubeSublink(d)).Up() {
			cand = append(cand, d)
		}
	}
	return cand
}

// Send delivers payload to node dst under tag. The caller blocks for the
// first-hop wire time; intermediate hops forward concurrently
// (store-and-forward, so an h-hop message costs about h times the wire
// time plus h DMA startups). Sending to a crashed node fails fast with
// a CrashedError; a send abandoned en route surfaces as a DownError or
// is dropped at an intermediate router (visible in RouteDrops).
func (e *Endpoint) Send(p *sim.Proc, dst, tag int, payload []byte) error {
	frame, body, err := e.frame(dst, tag, len(payload))
	if err != nil {
		return err
	}
	copy(body, payload)
	return e.post(p, dst, tag, frame, body)
}

// frame checks that an n-byte payload can go to dst and returns the
// buffer that will carry it, with body the payload's place in it. A
// message to this node is delivered as its bare payload; any other
// gets a wire frame whose header is already written.
func (e *Endpoint) frame(dst, tag, n int) (frame, body []byte, err error) {
	if dst == e.id {
		body = make([]byte, n)
		return body, body, nil
	}
	if dst < 0 || dst >= e.net.Size() {
		return nil, nil, fmt.Errorf("comm: destination %d outside %d-cube", dst, e.net.Dim)
	}
	if !e.net.alive(dst) {
		return nil, nil, &CrashedError{Node: dst}
	}
	frame = make([]byte, headerBytes+n)
	putHeader(frame, e.id, dst, tag, n)
	return frame, frame[headerBytes:], nil
}

// post sends a frame built by frame once its body is filled in.
func (e *Endpoint) post(p *sim.Proc, dst, tag int, frame, body []byte) error {
	e.Sent++
	if dst == e.id {
		// Local delivery costs nothing on the wire.
		e.mailbox(tag).Send(p, delivered{src: e.id, payload: body})
		return nil
	}
	e.BytesSent += int64(len(body))
	return e.forward(p, frame, dst, -1)
}

// Recv blocks until a message with the given tag arrives.
func (e *Endpoint) Recv(p *sim.Proc, tag int) (src int, payload []byte) {
	d := e.mailbox(tag).Recv(p).(delivered)
	return d.src, d.payload
}

// ID reports the endpoint's cube address.
func (e *Endpoint) ID() int { return e.id }

// Node returns the underlying processor node.
func (e *Endpoint) Node() *node.Node { return e.nd }

// Dim reports the cube dimension.
func (e *Endpoint) Dim() int { return e.net.Dim }

// Typed helpers: 64-bit vectors travel as little-endian bytes, eight per
// element — exactly what the link DMA would carry.

// SendF64 sends a vector of 64-bit elements, written straight into
// the frame.
func (e *Endpoint) SendF64(p *sim.Proc, dst, tag int, vals []fparith.F64) error {
	frame, body, err := e.frame(dst, tag, 8*len(vals))
	if err != nil {
		return err
	}
	putF64(body, vals)
	return e.post(p, dst, tag, frame, body)
}

// RecvF64 receives a vector of 64-bit elements.
func (e *Endpoint) RecvF64(p *sim.Proc, tag int) (int, []fparith.F64) {
	src, payload := e.Recv(p, tag)
	return src, unpackF64(payload)
}

// BroadcastF64 broadcasts root's vector of 64-bit elements (see
// Broadcast); every node returns root's vector.
func (e *Endpoint) BroadcastF64(p *sim.Proc, root, tag int, vals []fparith.F64) ([]fparith.F64, error) {
	got, err := e.Broadcast(p, root, tag, packF64(vals))
	if err != nil {
		return nil, err
	}
	return unpackF64(got), nil
}

func packF64(vals []fparith.F64) []byte {
	buf := make([]byte, 8*len(vals))
	putF64(buf, vals)
	return buf
}

// putF64 writes vals into buf as little-endian 64-bit words.
func putF64(buf []byte, vals []fparith.F64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
}

func unpackF64(b []byte) []fparith.F64 {
	out := make([]fparith.F64, len(b)/8)
	for i := range out {
		out[i] = fparith.F64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
