package module

import (
	"encoding/binary"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

func buildModule(t testing.TB, nNodes int) (*sim.Kernel, *Module) {
	t.Helper()
	k := sim.NewKernel()
	nodes := make([]*node.Node, nNodes)
	for i := range nodes {
		nodes[i] = node.New(k, i)
	}
	m, err := New(k, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestModuleConstants(t *testing.T) {
	if PeakMFLOPS != 128 {
		t.Fatalf("module peak = %d, want 128", PeakMFLOPS)
	}
	if UserRAMBytes != 8<<20 {
		t.Fatalf("module RAM = %d, want 8 MB", UserRAMBytes)
	}
}

func TestSnapshotTimeFullModule(t *testing.T) {
	// "It takes about 15 seconds to take a snapshot": the thread's final
	// link carries all eight 1 MB images at ≈0.577 MB/s.
	k, m := buildModule(t, 8)
	// Put recognisable data in each node.
	for i, nd := range m.Nodes {
		nd.Mem.PokeWord(0, uint32(0xC0DE0000)+uint32(i))
	}
	var elapsed sim.Duration
	k.Go("snap", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.Snapshot(p); err != nil {
			t.Errorf("snapshot: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run(0)
	secs := elapsed.Seconds()
	if secs < 13 || secs > 17 {
		t.Fatalf("snapshot took %.2f s, want ≈15", secs)
	}
	if m.Disk.Keys() != 8*chunksPerNode {
		t.Fatalf("disk has %d blocks", m.Disk.Keys())
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	k, m := buildModule(t, 2)
	// Fill memories with patterns.
	for i, nd := range m.Nodes {
		for w := 0; w < 100; w++ {
			nd.Mem.PokeWord(w, uint32(i*1000+w))
		}
		nd.Mem.PokeF64(5000, fparith.FromFloat64(3.25*float64(i+1)))
	}
	var snap *Snapshot
	k.Go("run", func(p *sim.Proc) {
		var err error
		snap, err = m.Snapshot(p)
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		// The computation then corrupts/advances state.
		for _, nd := range m.Nodes {
			for w := 0; w < 100; w++ {
				nd.Mem.PokeWord(w, 0xFFFFFFFF)
			}
		}
		if err := m.Restore(p, snap); err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	k.Run(0)
	for i, nd := range m.Nodes {
		for w := 0; w < 100; w++ {
			if nd.Mem.PeekWord(w) != uint32(i*1000+w) {
				t.Fatalf("node %d word %d = %#x after restore", i, w, nd.Mem.PeekWord(w))
			}
		}
		if got := nd.Mem.PeekF64(5000).Float64(); got != 3.25*float64(i+1) {
			t.Fatalf("node %d f64 = %g after restore", i, got)
		}
	}
}

func TestRestoreUnknownSnapshot(t *testing.T) {
	k, m := buildModule(t, 1)
	var err error
	k.Go("r", func(p *sim.Proc) {
		err = m.Restore(p, &Snapshot{ID: 99})
	})
	k.Run(0)
	if err == nil {
		t.Fatal("restore of missing snapshot succeeded")
	}
	if e2 := func() (e error) {
		k.Go("r2", func(p *sim.Proc) { e = m.Restore(p, nil) })
		k.Run(0)
		return
	}(); e2 == nil {
		t.Fatal("restore of nil snapshot succeeded")
	}
}

func TestCrashRecovery(t *testing.T) {
	// Fault injection: a parity error appears mid-computation; the
	// module restores the last snapshot and the pre-crash state returns.
	k, m := buildModule(t, 1)
	nd := m.Nodes[0]
	nd.Mem.PokeWord(10, 1234)
	var restored uint32
	k.Go("lifecycle", func(p *sim.Proc) {
		snap, err := m.Snapshot(p)
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		// The workload makes progress, then a DRAM fault corrupts data.
		nd.Mem.PokeWord(10, 5678)
		nd.Mem.FlipBit(40, 2)
		if _, err := nd.Mem.ReadWord(p, 10); err == nil {
			t.Error("expected parity error")
		}
		// Recovery: restore the checkpoint.
		if err := m.Restore(p, snap); err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		v, err := nd.Mem.ReadWord(p, 10)
		if err != nil {
			t.Errorf("read after restore: %v", err)
		}
		restored = v
	})
	k.Run(0)
	if restored != 1234 {
		t.Fatalf("after recovery word = %d, want 1234", restored)
	}
}

func TestSingleNodeSnapshotFasterThanFull(t *testing.T) {
	// A 1-node module's snapshot moves 1 MB, ≈1/8 the time of a full
	// module's 8 MB.
	k, m := buildModule(t, 1)
	var elapsed sim.Duration
	k.Go("snap", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.Snapshot(p); err != nil {
			t.Errorf("snapshot: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run(0)
	if s := elapsed.Seconds(); s < 1.5 || s > 3 {
		t.Fatalf("1-node snapshot took %.2f s, want ≈2", s)
	}
}

func TestModuleSizeValidation(t *testing.T) {
	k := sim.NewKernel()
	var nodes []*node.Node
	if _, err := New(k, 0, nodes); err == nil {
		t.Fatal("empty module accepted")
	}
	nodes = make([]*node.Node, 9)
	for i := range nodes {
		nodes[i] = node.New(k, i)
	}
	if _, err := New(k, 0, nodes); err == nil {
		t.Fatal("9-node module accepted")
	}
}

func TestMemoryGeometryAssumption(t *testing.T) {
	if memory.Bytes%SnapshotChunk != 0 {
		t.Fatal("snapshot chunk must divide node memory")
	}
	if chunksPerNode != 16 {
		t.Fatalf("chunksPerNode = %d", chunksPerNode)
	}
}

func TestExternalIOLoadAndDump(t *testing.T) {
	// The front end loads a problem into node 5's memory and reads a
	// result back, both through the system board thread at link rate.
	k, m := buildModule(t, 8)
	data := make([]byte, 100*1024)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var loadTime, dumpTime sim.Duration
	var dumped []byte
	k.Go("frontend", func(p *sim.Proc) {
		start := p.Now()
		if err := m.LoadNodeMemory(p, 5, 0x40000, data); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		loadTime = p.Now().Sub(start)
		start = p.Now()
		var err error
		dumped, err = m.DumpNodeMemory(p, 5, 0x40000, len(data))
		if err != nil {
			t.Errorf("dump: %v", err)
		}
		dumpTime = p.Now().Sub(start)
	})
	k.Run(0)
	for i := range data {
		if m.Nodes[5].Mem.PeekByte(0x40000+i) != data[i] {
			t.Fatalf("loaded byte %d wrong", i)
		}
		if dumped[i] != data[i] {
			t.Fatalf("dumped byte %d wrong", i)
		}
	}
	// 100 KB at ≈0.577 MB/s ≈ 178 ms minimum; the 16 KB chunks pipeline
	// across the thread's six hops, leaving ≈150 ms of fill, and the
	// dump pays request/latency per chunk too.
	min := 170 * sim.Millisecond
	if loadTime < min || loadTime > 3*min {
		t.Fatalf("load took %v", loadTime)
	}
	if dumpTime < min || dumpTime > 4*min {
		t.Fatalf("dump took %v", dumpTime)
	}
}

func TestExternalIOValidation(t *testing.T) {
	k, m := buildModule(t, 1)
	var errs []error
	k.Go("fe", func(p *sim.Proc) {
		e1 := m.LoadNodeMemory(p, 9, 0, []byte{1})
		e2 := m.LoadNodeMemory(p, 0, memory.Bytes, []byte{1})
		_, e3 := m.DumpNodeMemory(p, 0, memory.Bytes-1, 10)
		errs = append(errs, e1, e2, e3)
	})
	k.Run(0)
	for i, e := range errs {
		if e == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSnapshotChunkTravelsByReference(t *testing.T) {
	// A snapshot chunk crosses the thread's hops (node 0 → 1 → 2 → 3 →
	// system board) as one array: every hop hands the frame over. Only
	// row 0 of chunk 0 was ever written, so the frame carries the header
	// and that row, while every hop's link charges and counts the whole
	// chunk.
	k, m := buildModule(t, 4)
	m.Nodes[0].Mem.PokeWord(5, 0xC0DE)
	var sent, collected []byte
	k.Go("snapread", func(p *sim.Proc) {
		sent = snapshotFrame(m.Nodes[0].Mem, 0, 0, 1)
		if err := m.Nodes[0].Sublink(ThreadOutSublink).SendWire(p, sent, chunkWire); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		collected = m.upChan.Recv(p).([]byte)
	})
	k.Run(0)
	if len(sent) != chunkHeaderBytes+memory.RowBytes {
		t.Fatalf("frame is %d bytes, want the header and one row (%d)", len(sent), chunkHeaderBytes+memory.RowBytes)
	}
	if len(collected) != len(sent) || &collected[0] != &sent[0] {
		t.Fatal("the collector got a different array than the reader sent")
	}
	for i, nd := range m.Nodes {
		out := nd.Links[ThreadOutSublink/link.SublinksPerLink]
		if out.Transfers != 1 || out.BytesSent != chunkHeaderBytes+SnapshotChunk {
			t.Fatalf("node %d forwarded %d frames of %d bytes, want 1 of %d",
				i, out.Transfers, out.BytesSent, chunkHeaderBytes+SnapshotChunk)
		}
	}
	if got := binary.LittleEndian.Uint32(collected[chunkHeaderBytes+20:]); got != 0xC0DE {
		t.Fatalf("chunk payload word 5 = %#x", got)
	}
}

func TestRestoreClearsChunkTail(t *testing.T) {
	// Chunk 0 carries rows 0..2 on the wire; rows 3..63 are its zero
	// tail. A tail row written after the snapshot must read zero after
	// the restore, and a tail row never written must stay unmaterialized.
	k, m := buildModule(t, 1)
	mem := m.Nodes[0].Mem
	mem.PokeWord(0, 1)
	mem.PokeWord(memory.RowAddr(2)/4, 2)
	var resident int64
	k.Go("run", func(p *sim.Proc) {
		snap, err := m.Snapshot(p)
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		mem.PokeWord(memory.RowAddr(2)/4, 20)
		mem.PokeWord(memory.RowAddr(40)/4, 40)
		resident = mem.MaterializedRows()
		if err := m.Restore(p, snap); err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	k.Run(0)
	if got := mem.PeekWord(memory.RowAddr(2) / 4); got != 2 {
		t.Fatalf("carried row 2 reads %d after restore, want 2", got)
	}
	if got := mem.PeekWord(memory.RowAddr(40) / 4); got != 0 {
		t.Fatalf("tail row 40, written after the snapshot, reads %d after restore, want 0", got)
	}
	if mem.RowResident(41) || mem.MaterializedRows() != resident {
		t.Fatalf("restore materialized tail rows: %d resident, want %d", mem.MaterializedRows(), resident)
	}
}

func TestThreadSendToOrphanedHopDrops(t *testing.T) {
	// Re-cable the thread around node 1: its out sublink loses its peer.
	// A frame node 1 must forward is then dropped and counted like one
	// hitting a dead hop, and a restore chunk still posts its token.
	k, m := buildModule(t, 3)
	if err := link.Rewire(m.Nodes[0].Sublink(ThreadOutSublink), m.Nodes[2].Sublink(ThreadInSublink)); err != nil {
		t.Fatal(err)
	}
	feeder := link.NewLink(k, "feeder")
	if err := link.Connect(feeder.Sublink(0), m.Nodes[1].Sublink(ThreadInSublink)); err != nil {
		t.Fatal(err)
	}
	k.Go("feed", func(p *sim.Proc) {
		chunk := make([]byte, chunkHeaderBytes+memory.RowBytes)
		putChunkHeader(chunk, kindDown, 2, 0, 0) // addressed past node 1
		if err := feeder.Sublink(0).Send(p, chunk); err != nil {
			t.Errorf("feed: %v", err)
			return
		}
		m.applied.Recv(p)
	})
	k.Run(0)
	if m.ThreadDrops != 1 || k.Stats().Counters["module.thread_drops"] != 1 {
		t.Fatalf("thread drops = %d (counter %d), want 1", m.ThreadDrops, k.Stats().Counters["module.thread_drops"])
	}
}
