package module

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/link"
	"tseries/internal/sim"
)

// The system ring: system boards are directly connected by communication
// links into a ring that is independent of the binary n-cube joining the
// processor nodes. Its job is backing up snapshots to other modules'
// disks. Failure detection sends nothing around it: each board judges
// its own slots (machine/detector.go).

const kindBackup = 3

// ConnectRing wires the module system boards into a unidirectional ring
// (module i's ring-out to module i+1's ring-in) and starts a ring
// service daemon on each board, on that module's own kernel, that
// stores arriving backup blocks on the local disk. Every module must be
// built on a shard kernel of g; a ring segment whose two boards live on
// different shards becomes a staged link pair over XChan edges (one per
// direction) with the link-layer lookahead.
func ConnectRing(g *sim.ShardGroup, mods []*Module) error {
	if len(mods) < 2 {
		return fmt.Errorf("module: a ring needs at least two modules")
	}
	shard := make([]int, len(mods))
	for i, m := range mods {
		if shard[i] = g.ShardOf(m.k); shard[i] < 0 {
			return fmt.Errorf("module: module %d not built on a shard kernel of the group", m.Index)
		}
	}
	for i := range mods {
		j := (i + 1) % len(mods)
		out := mods[i].Sys.Link.Sublink(sysRingOut)
		in := mods[j].Sys.Link.Sublink(sysRingIn)
		sa, sb := shard[i], shard[j]
		if sa == sb {
			if err := link.Connect(out, in); err != nil {
				return err
			}
			continue
		}
		ab := g.ConnectInto(sa, sb, link.Lookahead, in.Inbox())
		ba := g.ConnectInto(sb, sa, link.Lookahead, out.Inbox())
		if err := link.ConnectStaged(out, in, ab, ba); err != nil {
			return err
		}
	}
	for _, m := range mods {
		m.Sys.Link.Sublink(sysRingIn).Serve(fmt.Sprintf("mod%d/sys/ring", m.Index), m.ringFrame)
	}
	return nil
}

// ringFrame handles one frame off the system ring: it stores a backup
// block on the local disk.
func (m *Module) ringFrame(p *sim.Proc, raw []byte) {
	if len(raw) < 3 || raw[0] != kindBackup {
		return
	}
	keyLen := int(binary.LittleEndian.Uint16(raw[1:3]))
	if len(raw) < 3+keyLen {
		return
	}
	key := string(raw[3 : 3+keyLen])
	data := raw[3+keyLen:]
	m.Disk.Write(p, key, data)
}

// BackupLastSnapshot streams this module's most recent snapshot over the
// system ring to the next module's disk, prefixed "backup/". It blocks
// for the ring transfer time (the ring link is the bottleneck, just as
// for local snapshots).
func (m *Module) BackupLastSnapshot(p *sim.Proc) error {
	snap := m.LastSnapshot
	if snap == nil {
		return fmt.Errorf("module %d: nothing to back up", m.Index)
	}
	for _, as := range m.activeSlots() {
		for seq := 0; seq < chunksPerNode; seq++ {
			key := snapKey(snap.ID, as.img, seq)
			data, ok := m.Disk.Peek(key)
			if !ok {
				return fmt.Errorf("module %d: snapshot block %s missing", m.Index, key)
			}
			// Timed disk read feeding the ring.
			m.Disk.busy.Use(p, sim.Duration(len(data))*m.Disk.ByteTime)
			bkey := fmt.Sprintf("backup/mod%d/%s", m.Index, key)
			msg := make([]byte, 3+len(bkey)+len(data))
			msg[0] = kindBackup
			binary.LittleEndian.PutUint16(msg[1:3], uint16(len(bkey)))
			copy(msg[3:], bkey)
			copy(msg[3+len(bkey):], data)
			if err := m.Sys.Link.Sublink(sysRingOut).Send(p, msg); err != nil {
				return err
			}
		}
	}
	return nil
}

// HasBackupOf reports whether this module's disk holds a full backup of
// the given module's snapshot.
func (m *Module) HasBackupOf(srcModule, snapID, nNodes int) bool {
	for idx := 0; idx < nNodes; idx++ {
		for seq := 0; seq < chunksPerNode; seq++ {
			key := fmt.Sprintf("backup/mod%d/%s", srcModule, snapKey(snapID, idx, seq))
			if !m.Disk.Has(key) {
				return false
			}
		}
	}
	return true
}
