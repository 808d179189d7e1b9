package module

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// Packaging constants from the paper.
const (
	// NodesPerModule: eight nodes plus a system board and disk support.
	NodesPerModule = 8
	// PeakMFLOPS of a full module.
	PeakMFLOPS = NodesPerModule * node.PeakMFLOPS // 128
	// UserRAMBytes of a full module.
	UserRAMBytes = NodesPerModule * memory.Bytes // 8 MB
	// ThreadOutSublink / ThreadInSublink are the two sublinks each node
	// reserves for system communication ("Two sublinks are used for
	// system communication").
	ThreadInSublink  = 14 // from the previous element of the thread
	ThreadOutSublink = 15 // to the next element of the thread
	// SnapshotChunk is the unit in which memory images stream along the
	// thread; chunked transfers pipeline across the chain's hops.
	SnapshotChunk = 64 * 1024
)

// Thread message kinds.
const (
	kindUp   = 1 // snapshot data heading to the system board
	kindDown = 2 // restore data heading to a node
	// kindBackup (3) and the I/O kinds (4..6) live in ring.go / io.go.
	// kindBeat (7) lives in health.go.
)

// SystemBoard provides input/output and management functions for a
// module. It owns one physical link whose sublinks serve the node thread
// (0: out to node 0, 1: in from the last node), and the system ring
// (2: out, 3: in).
type SystemBoard struct {
	Link *link.Link
}

// Thread/ring sublink roles on the system board's link.
const (
	sysThreadOut = 0
	sysThreadIn  = 1
	sysRingOut   = 2
	sysRingIn    = 3
)

// Snapshot identifies one recorded checkpoint.
type Snapshot struct {
	ID   int
	Time sim.Time
}

// Module is eight nodes + system board + disk.
type Module struct {
	Index int
	Nodes []*node.Node
	Sys   *SystemBoard
	Disk  *Disk

	k       *sim.Kernel
	upChan  *sim.Chan // collected kindUp chunks
	ioChan  *sim.Chan // collected kindIOData replies
	applied *sim.Chan // one token per kindDown/kindIOWrite chunk applied

	nextSnapID   int
	LastSnapshot *Snapshot

	SnapshotsTaken int

	// mapped[slot] is the image (checkpoint identity) physical slot
	// restores from and snapshots to, or -1 when the slot holds no image:
	// a cold spare awaiting work, or a dead slot bypassed out of the
	// thread. Initially the identity map; spare reservation and
	// remapping edit it through SetSpare/BypassSlot/AdoptImage.
	mapped []int
	// bypassed marks slots the thread has been re-cabled around.
	bypassed []bool

	// ThreadDrops counts thread frames a forwarder discarded because its
	// outbound channel was dead (a severed thread, before bypass).
	ThreadDrops int64

	// health is the system board's per-slot liveness ledger (health.go).
	health     []SlotHealth
	hbInterval sim.Duration
	hbProcs    []*sim.Proc

	// epoch tags the chunks of the current snapshot so a collector can
	// discard strays from a snapshot that was aborted by a rollback.
	epoch byte

	// In-flight snapshot workers: the collecting process and the
	// per-node memory readers. A rollback kills them via AbortSnapshot —
	// a surviving stale collector would otherwise swallow (and discard,
	// by epoch) the chunks of the next snapshot.
	snapOwner   *sim.Proc
	snapReaders []*sim.Proc
}

// New wires a module around the given nodes (up to eight; machine
// builders pass eight, unit tests may pass fewer). The thread runs
// system board → node 0 → node 1 → … → last node → system board.
func New(k *sim.Kernel, index int, nodes []*node.Node) (*Module, error) {
	if len(nodes) == 0 || len(nodes) > NodesPerModule {
		return nil, fmt.Errorf("module: need 1..%d nodes, got %d", NodesPerModule, len(nodes))
	}
	m := &Module{
		Index:    index,
		Nodes:    nodes,
		Sys:      &SystemBoard{Link: link.NewLink(k, fmt.Sprintf("mod%d/sys", index))},
		Disk:     NewDisk(k, fmt.Sprintf("mod%d", index)),
		k:        k,
		upChan:   sim.NewChan(k, fmt.Sprintf("mod%d/up", index), 1<<20),
		ioChan:   sim.NewChan(k, fmt.Sprintf("mod%d/io", index), 1<<20),
		applied:  sim.NewChan(k, fmt.Sprintf("mod%d/applied", index), 1<<20),
		mapped:   make([]int, len(nodes)),
		bypassed: make([]bool, len(nodes)),
		health:   make([]SlotHealth, len(nodes)),
	}
	for i := range m.mapped {
		m.mapped[i] = i
	}
	// Wire the thread.
	if err := link.Connect(m.Sys.Link.Sublink(sysThreadOut), nodes[0].Sublink(ThreadInSublink)); err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(nodes); i++ {
		if err := link.Connect(nodes[i].Sublink(ThreadOutSublink), nodes[i+1].Sublink(ThreadInSublink)); err != nil {
			return nil, err
		}
	}
	last := nodes[len(nodes)-1]
	if err := link.Connect(last.Sublink(ThreadOutSublink), m.Sys.Link.Sublink(sysThreadIn)); err != nil {
		return nil, err
	}
	// Per-node thread forwarders.
	for i, nd := range nodes {
		idx, n := i, nd
		n.Sublink(ThreadInSublink).Serve(fmt.Sprintf("mod%d/n%d/thread", index, i), func(p *sim.Proc, raw []byte) {
			m.threadFrame(p, idx, n, raw)
		})
	}
	// System-board collector.
	m.Sys.Link.Sublink(sysThreadIn).Serve(fmt.Sprintf("mod%d/sys/collect", index), m.collect)
	return m, nil
}

// collect sorts a frame arriving back at the system board off the
// thread.
func (m *Module) collect(p *sim.Proc, raw []byte) {
	if len(raw) >= 2 {
		switch raw[0] {
		case kindUp:
			m.upChan.Send(p, raw)
			return
		case kindIOData:
			m.ioChan.Send(p, raw)
			return
		case kindBeat:
			m.noteBeat(p.Now(), raw)
			return
		}
	}
	// Anything else arriving here went all the way around unclaimed:
	// drop it (an addressing bug upstream surfaces in tests as an
	// operation that never completes).
}

// threadFrame relays one thread frame through node idx, applying the
// restore and I/O chunks addressed to it.
func (m *Module) threadFrame(p *sim.Proc, idx int, nd *node.Node, raw []byte) {
	if len(raw) < 4 {
		return
	}
	out := nd.Sublink(ThreadOutSublink)
	if raw[0] == kindDown && int(raw[1]) == idx {
		// Write the image chunk back through the row port: the carried
		// rows, then zeros over the rest of the chunk. Only rows the
		// node has written since hold anything to clear there.
		addr := int(raw[2]) * SnapshotChunk
		data := raw[chunkHeaderBytes:]
		p.Wait(chunkPortTime)
		nd.Mem.PokeBytes(addr, data)
		nd.Mem.ZeroBytes(addr+len(data), SnapshotChunk-len(data))
		m.applied.Send(p, struct{}{})
		return
	}
	if raw[0] == kindIOWrite && len(raw) >= 6 && int(raw[1]) == idx {
		off := int(binary.LittleEndian.Uint32(raw[2:6]))
		data := raw[6:]
		rows := (len(data) + memory.RowBytes - 1) / memory.RowBytes
		p.Wait(sim.Duration(rows) * sim.RowAccess)
		nd.Mem.PokeBytes(off, data)
		m.applied.Send(p, struct{}{})
		return
	}
	if raw[0] == kindIORead && len(raw) >= 10 && int(raw[1]) == idx {
		off := int(binary.LittleEndian.Uint32(raw[2:6]))
		count := int(binary.LittleEndian.Uint32(raw[6:10]))
		rows := (count + memory.RowBytes - 1) / memory.RowBytes
		p.Wait(sim.Duration(rows) * sim.RowAccess)
		reply := make([]byte, 2+count)
		reply[0] = kindIOData
		reply[1] = byte(idx)
		nd.Mem.PeekInto(off, reply[2:])
		m.threadSend(p, out, reply)
		return
	}
	m.threadSend(p, out, raw)
}

// threadSend forwards a frame down the thread, tolerating a missing
// next hop: the frame is dropped and counted rather than stopping the
// kernel, because a crashed downstream board is exactly the situation
// the self-healing layer exists to survive. Snapshot and restore
// chunks travel at chunkWire, every other frame at its own length; raw
// is never empty or longer than that, so the send can fail only with a
// DownError (a dead next hop) or ErrNotConnected (a hop a rewire left
// orphaned), and both lose the frame the same way. A dropped kindDown
// or kindIOWrite chunk still posts its application token so the
// feeding process stays bounded — the loss surfaces as a detected
// fault on the next heal cycle, not as a deadlocked restore.
func (m *Module) threadSend(p *sim.Proc, out *link.Sublink, raw []byte) {
	wire := len(raw)
	if raw[0] == kindUp || raw[0] == kindDown {
		wire = chunkWire
	}
	if out.SendWire(p, raw, wire) == nil {
		return
	}
	m.ThreadDrops++
	m.k.Count("module.thread_drops", 1)
	if raw[0] == kindDown || raw[0] == kindIOWrite {
		m.applied.Send(p, struct{}{})
	}
}

// chunkHeaderBytes is the thread prefix of snapshot and restore chunks:
// kind, node index, chunk sequence number, and the snapshot epoch (zero
// for restore traffic).
const chunkHeaderBytes = 4

// Snapshot and restore chunk geometry. A chunk frame carries its chunk
// only up to the last row worth carrying; the rest travels as the
// frame's zero tail, so every chunk frame has the wire length
// chunkWire, and moving one through a node's row port takes
// chunkPortTime.
const (
	chunkWire     = chunkHeaderBytes + SnapshotChunk
	chunkRows     = SnapshotChunk / memory.RowBytes
	chunkPortTime = chunkRows * sim.RowAccess
)

func putChunkHeader(f []byte, kind, nodeIdx, seq int, epoch byte) {
	f[0], f[1], f[2], f[3] = byte(kind), byte(nodeIdx), byte(seq), epoch
}

// snapshotFrame builds chunk seq of a node's memory image as a kindUp
// thread frame in one allocation, tagged with image slot img. The
// frame carries the chunk up to its last materialized row; the
// never-written rows after it are the frame's zero tail, so an
// untouched chunk is a bare header.
func snapshotFrame(mem *memory.Memory, img, seq int, epoch byte) []byte {
	first, end := seq*chunkRows, (seq+1)*chunkRows
	for end > first && !mem.RowResident(end-1) {
		end--
	}
	f := make([]byte, chunkHeaderBytes+(end-first)*memory.RowBytes)
	putChunkHeader(f, kindUp, img, seq, epoch)
	mem.PeekInto(seq*SnapshotChunk, f[chunkHeaderBytes:])
	return f
}

// chunksPerNode is the number of thread chunks in one node image.
const chunksPerNode = memory.Bytes / SnapshotChunk

// SnapshotStallTimeout is how long the snapshot collector tolerates
// zero chunk progress before checking whether the snapshot is torn.
// Silence alone is not proof — a retransmit storm on a lossy thread can
// legitimately hold chunks up for seconds — so on expiry the collector
// also requires a dead, still-cabled board in the module (the only
// thing that can sever the chain) before giving up.
const SnapshotStallTimeout = 2 * sim.Second

// threadSevered reports whether a dead board still sits in the module
// thread: every frame routed past its slot is lost until it is
// bypassed or repaired.
func (m *Module) threadSevered() bool {
	for i, nd := range m.Nodes {
		if !m.bypassed[i] && !nd.Alive() {
			return true
		}
	}
	return false
}

// Snapshot records every node's full memory image onto the module disk
// by streaming it along the system thread. The call blocks the invoking
// process for the full snapshot time — about 15 seconds for a full
// module, set by the thread's final link carrying all eight images.
//
// A snapshot interrupted by a rollback leaves reader processes and
// in-flight chunks behind; the next Snapshot call drains those and
// rejects their chunks by epoch, so a half-taken image can never mix
// into a new one.
func (m *Module) Snapshot(p *sim.Proc) (*Snapshot, error) {
	snap := &Snapshot{ID: m.nextSnapID}
	m.nextSnapID++
	m.epoch++
	epoch := m.epoch

	// Discard chunks left over from an aborted earlier snapshot.
	for {
		if _, ok := m.upChan.TryRecv(); !ok {
			break
		}
	}

	m.snapOwner = p
	m.snapReaders = m.snapReaders[:0]
	defer func() {
		if m.snapOwner == p {
			m.snapOwner = nil
		}
	}()

	// Each image-carrying node reads its memory through the row port and
	// injects chunks into the thread, tagged with its IMAGE slot so the
	// disk key survives remapping. Cold spares and bypassed slots
	// contribute nothing.
	active := m.activeSlots()
	for _, as := range active {
		img, n := as.img, m.Nodes[as.phys]
		m.snapReaders = append(m.snapReaders, m.k.Go(fmt.Sprintf("mod%d/n%d/snapread", m.Index, as.phys), func(rp *sim.Proc) {
			for seq := 0; seq < chunksPerNode; seq++ {
				rp.Wait(chunkPortTime)
				msg := snapshotFrame(n.Mem, img, seq, epoch)
				if err := n.Sublink(ThreadOutSublink).SendWire(rp, msg, chunkWire); err != nil {
					// Thread severed (node crash mid-snapshot): abandon
					// this image; the supervisor will roll back.
					return
				}
			}
		}))
	}

	// Collect and stream to disk, under a stall watchdog: a board dying
	// mid-snapshot severs the thread and strands the chunks of every
	// upstream reader, and the collector must surface that as an error —
	// blocking forever would wedge the whole machine (the failure
	// detector is suspended during checkpoints precisely because the
	// snapshot floods the thread).
	m.Disk.busy.Use(p, m.Disk.SeekTime)
	want := len(active) * chunksPerNode
	dogName := fmt.Sprintf("mod%d/snapdog", m.Index)
	tick := sim.NewChan(m.k, dogName, 4)
	dog := m.k.Every(dogName, SnapshotStallTimeout, func(dp *sim.Proc) {
		tick.Send(dp, struct{}{})
	})
	defer dog.Kill()
	lastProgress := p.Now()
	for got := 0; got < want; {
		which, v := sim.Select(p, m.upChan, tick)
		if which == 1 {
			// Ticks queue up while the collector is busy on the disk, so a
			// tick alone is not evidence of a stall; and even a long quiet
			// window can be a retransmit storm on a lossy thread rather
			// than a tear. Give up only when the clock has run out AND a
			// corpse is still cabled into the chain.
			if p.Now().Sub(lastProgress) > SnapshotStallTimeout && m.threadSevered() {
				m.killSnapReaders()
				return nil, fmt.Errorf("module %d: snapshot stalled at %d/%d chunks", m.Index, got, want)
			}
			continue
		}
		raw := v.([]byte)
		if raw[3] != epoch {
			continue // stray chunk from an aborted snapshot
		}
		// The disk records the whole chunk, zero tail included.
		m.Disk.busy.Use(p, SnapshotChunk*m.Disk.ByteTime)
		m.Disk.store(snapKey(snap.ID, int(raw[1]), int(raw[2])), raw[chunkHeaderBytes:], SnapshotChunk)
		got++
		lastProgress = p.Now()
	}
	snap.Time = p.Now()
	m.LastSnapshot = snap
	m.SnapshotsTaken++
	return snap, nil
}

// AbortSnapshot kills an in-flight snapshot's worker processes: the
// per-node memory readers and the collecting process itself. The
// recovery supervisor calls it when halting the machine — a stale
// collector left blocked on the chunk channel would steal (and, by
// epoch check, discard) the chunks of every later snapshot.
func (m *Module) AbortSnapshot() {
	m.killSnapReaders()
	if m.snapOwner != nil {
		m.snapOwner.Kill()
	}
	m.snapOwner = nil
}

// killSnapReaders kills the memory readers of the snapshot in flight.
func (m *Module) killSnapReaders() {
	for _, rp := range m.snapReaders {
		rp.Kill()
	}
	m.snapReaders = m.snapReaders[:0]
}

// FlushThread discards all in-flight system-thread state: node and
// system-board sublink inboxes and the module's collection channels.
// The recovery supervisor calls it after halting the machine. It
// reports how many queued items were dropped.
func (m *Module) FlushThread() int {
	n := 0
	drain := func(c *sim.Chan) {
		for {
			if _, ok := c.TryRecv(); !ok {
				return
			}
			n++
		}
	}
	drain(m.upChan)
	drain(m.ioChan)
	drain(m.applied)
	for _, nd := range m.Nodes {
		n += nd.Sublink(ThreadInSublink).Flush()
		n += nd.Sublink(ThreadOutSublink).Flush()
	}
	for i := 0; i < link.SublinksPerLink; i++ {
		n += m.Sys.Link.Sublink(i).Flush()
	}
	return n
}

// snapKey names chunk seq of node image nodeIdx of snapshot id on the
// disk: "snap<id>/node<nodeIdx>/chunk<seq>".
func snapKey(id, nodeIdx, seq int) string {
	b := make([]byte, 0, 40)
	b = append(b, "snap"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, "/node"...)
	b = strconv.AppendInt(b, int64(nodeIdx), 10)
	b = append(b, "/chunk"...)
	return string(strconv.AppendInt(b, int64(seq), 10))
}

// Restore streams a recorded snapshot from disk back into every node's
// memory along the thread, rewinding the module to the checkpoint.
func (m *Module) Restore(p *sim.Proc, snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("module %d: no snapshot to restore", m.Index)
	}
	// Verify the snapshot is complete and uncorrupted before touching
	// the machine: a rotted block must fail the whole restore (so the
	// supervisor can fall back to an older snapshot), not half-rewind it.
	// Keys are by image slot; delivery is to whatever physical slot
	// carries each image now.
	active := m.activeSlots()
	for _, as := range active {
		for seq := 0; seq < chunksPerNode; seq++ {
			key := snapKey(snap.ID, as.img, seq)
			if !m.Disk.Has(key) {
				return fmt.Errorf("module %d: snapshot %d is missing image %d chunk %d", m.Index, snap.ID, as.img, seq)
			}
			if !m.Disk.Verify(key) {
				return &CorruptError{Disk: m.Disk.Name, Key: key}
			}
		}
	}
	want := len(active) * chunksPerNode
	// Feed the thread from the disk, double-buffered so disk reads
	// overlap wire time (otherwise restore would be read+send serial).
	errs := make(chan error, 1) // host-side plumbing; never blocks the sim
	queue := sim.NewChan(m.k, fmt.Sprintf("mod%d/restoreq", m.Index), 2)
	m.k.Go(fmt.Sprintf("mod%d/sys/restoreread", m.Index), func(fp *sim.Proc) {
		for _, as := range active {
			for seq := 0; seq < chunksPerNode; seq++ {
				b, err := m.Disk.read(fp, snapKey(snap.ID, as.img, seq))
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				msg := b.bytes(chunkHeaderBytes, b.carried())
				putChunkHeader(msg, kindDown, as.phys, seq, 0)
				queue.Send(fp, msg)
			}
		}
	})
	m.k.Go(fmt.Sprintf("mod%d/sys/restorefeed", m.Index), func(fp *sim.Proc) {
		for i := 0; i < want; i++ {
			msg := queue.Recv(fp).([]byte)
			if err := m.Sys.Link.Sublink(sysThreadOut).SendWire(fp, msg, chunkWire); err != nil {
				// Thread severed under the feed (a fresh failure during
				// recovery): report and post the outstanding tokens so
				// the collector is not left waiting on chunks that will
				// never arrive.
				select {
				case errs <- err:
				default:
				}
				for j := i; j < want; j++ {
					m.applied.Send(fp, struct{}{})
				}
				return
			}
		}
	})
	for got := 0; got < want; got++ {
		m.applied.Recv(p)
	}
	select {
	case err := <-errs:
		return err
	default:
	}
	return nil
}
