package memory

import (
	"testing"
	"testing/quick"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

func TestGeometry(t *testing.T) {
	if Bytes != 1<<20 {
		t.Fatalf("total = %d, want 1 MB", Bytes)
	}
	if Words != 256*1024 {
		t.Fatalf("words = %d, want 256K", Words)
	}
	if BankARows+BankBRows != NumRows {
		t.Fatal("banks do not cover memory")
	}
	if F64PerRow != 128 || F32PerRow != 256 {
		t.Fatalf("vector lengths: %d/%d, want 128/256", F64PerRow, F32PerRow)
	}
	if BankOf(0) != BankA || BankOf(255) != BankA || BankOf(256) != BankB || BankOf(1023) != BankB {
		t.Fatal("bank mapping wrong")
	}
}

func TestPeekPoke(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	m.PokeWord(0, 0xDEADBEEF)
	m.PokeWord(Words-1, 0x12345678)
	if m.PeekWord(0) != 0xDEADBEEF || m.PeekWord(Words-1) != 0x12345678 {
		t.Fatal("word roundtrip failed")
	}
	v := fparith.FromFloat64(3.14159)
	m.PokeF64(100, v)
	if m.PeekF64(100) != v {
		t.Fatal("f64 roundtrip failed")
	}
	m.PokeF32(7, fparith.FromFloat32(2.5))
	if m.PeekF32(7).Float32() != 2.5 {
		t.Fatal("f32 roundtrip failed")
	}
}

func TestTimedWordAccess(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	m.PokeWord(5, 42)
	var v uint32
	var end sim.Time
	k.Go("cp", func(p *sim.Proc) {
		var err error
		v, err = m.ReadWord(p, 5)
		if err != nil {
			t.Errorf("read error: %v", err)
		}
		m.WriteWord(p, 6, v+1)
		end = p.Now()
	})
	k.Run(0)
	if v != 42 || m.PeekWord(6) != 43 {
		t.Fatal("timed access wrong values")
	}
	if end != sim.Time(2*sim.WordAccess) {
		t.Fatalf("2 word accesses took %v, want 800ns", end)
	}
}

func TestWordPortContention(t *testing.T) {
	// Two processes sharing the random-access port serialise.
	k := sim.NewKernel()
	m := New(k, "n0")
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Go("u", func(p *sim.Proc) {
			if _, err := m.ReadWord(p, 0); err != nil {
				t.Errorf("read: %v", err)
			}
			ends = append(ends, p.Now())
		})
	}
	k.Run(0)
	if ends[0] != sim.Time(400*sim.Nanosecond) || ends[1] != sim.Time(800*sim.Nanosecond) {
		t.Fatalf("ends = %v, want 400ns/800ns", ends)
	}
}

func TestRowTransferTiming(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	for i := 0; i < F64PerRow; i++ {
		m.PokeF64(i, fparith.FromInt64(int64(i)))
	}
	var reg VectorReg
	var loadEnd sim.Time
	k.Go("vec", func(p *sim.Proc) {
		if err := m.LoadRow(p, 0, &reg); err != nil {
			t.Errorf("load: %v", err)
		}
		loadEnd = p.Now()
		if err := m.StoreRow(p, 300, &reg); err != nil {
			t.Errorf("store: %v", err)
		}
	})
	k.Run(0)
	if loadEnd != sim.Time(sim.RowAccess) {
		t.Fatalf("row load took %v, want 400ns", loadEnd)
	}
	for i := 0; i < F64PerRow; i++ {
		if reg.F64(i) != fparith.FromInt64(int64(i)) {
			t.Fatalf("reg element %d wrong", i)
		}
	}
	// Row 300 is in bank B; verify contents arrived.
	if m.PeekF64(300*F64PerRow+5) != fparith.FromInt64(5) {
		t.Fatal("store row contents wrong")
	}
}

func TestRowBandwidth(t *testing.T) {
	// Effective bandwidth between memory and a vector register must be
	// 1024 bytes / 400 ns = 2560 MB/s.
	k := sim.NewKernel()
	m := New(k, "n0")
	var reg VectorReg
	const rows = 100
	k.Go("vec", func(p *sim.Proc) {
		for i := 0; i < rows; i++ {
			if err := m.LoadRow(p, i%NumRows, &reg); err != nil {
				t.Errorf("load: %v", err)
			}
		}
	})
	end := k.Run(0)
	mbps := float64(rows*RowBytes) / sim.Duration(end).Seconds() / 1e6
	if mbps < 2559 || mbps > 2561 {
		t.Fatalf("row bandwidth = %.1f MB/s, want 2560", mbps)
	}
}

func TestWordBandwidth(t *testing.T) {
	// CP effective bandwidth to RAM: 4 bytes / 400 ns = 10 MB/s.
	k := sim.NewKernel()
	m := New(k, "n0")
	const words = 1000
	k.Go("cp", func(p *sim.Proc) {
		for i := 0; i < words; i++ {
			if _, err := m.ReadWord(p, i); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	end := k.Run(0)
	mbps := float64(words*4) / sim.Duration(end).Seconds() / 1e6
	if mbps < 9.99 || mbps > 10.01 {
		t.Fatalf("word bandwidth = %.2f MB/s, want 10", mbps)
	}
}

func TestBanksOperateInParallel(t *testing.T) {
	// A row transfer on bank A and one on bank B overlap fully; two on
	// the same bank serialise.
	k := sim.NewKernel()
	m := New(k, "n0")
	var r1, r2 VectorReg
	k.Go("a", func(p *sim.Proc) { _ = m.LoadRow(p, 0, &r1) })   // bank A
	k.Go("b", func(p *sim.Proc) { _ = m.LoadRow(p, 500, &r2) }) // bank B
	end := k.Run(0)
	if end != sim.Time(sim.RowAccess) {
		t.Fatalf("parallel banks took %v, want 400ns", end)
	}

	k2 := sim.NewKernel()
	m2 := New(k2, "n1")
	k2.Go("a", func(p *sim.Proc) { _ = m2.LoadRow(p, 0, &r1) })
	k2.Go("b", func(p *sim.Proc) { _ = m2.LoadRow(p, 1, &r2) }) // same bank
	end2 := k2.Run(0)
	if end2 != sim.Time(2*sim.RowAccess) {
		t.Fatalf("same-bank transfers took %v, want 800ns", end2)
	}
}

func TestMoveRow(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	for i := 0; i < F64PerRow; i++ {
		m.PokeF64(i, fparith.FromInt64(int64(i*3)))
	}
	var scratch VectorReg
	k.Go("mv", func(p *sim.Proc) {
		if err := m.MoveRow(p, 700, 0, &scratch); err != nil {
			t.Errorf("move: %v", err)
		}
	})
	end := k.Run(0)
	if end != sim.Time(2*sim.RowAccess) {
		t.Fatalf("row move took %v, want 800ns", end)
	}
	for i := 0; i < F64PerRow; i++ {
		if m.PeekF64(700*F64PerRow+i) != fparith.FromInt64(int64(i*3)) {
			t.Fatalf("moved row element %d wrong", i)
		}
	}
}

func TestParityDetection(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	m.PokeWord(10, 0xFFFF0000)
	m.FlipBit(10*4+1, 3)
	var err error
	k.Go("cp", func(p *sim.Proc) {
		_, err = m.ReadWord(p, 10)
	})
	k.Run(0)
	if err == nil {
		t.Fatal("parity error not detected")
	}
	pe, ok := err.(*ParityError)
	if !ok || pe.Addr != 41 {
		t.Fatalf("err = %v, want ParityError at 41", err)
	}
	// Rewriting the word clears the fault.
	k.Go("cp2", func(p *sim.Proc) {
		m.WriteWord(p, 10, 123)
		_, err = m.ReadWord(p, 10)
	})
	k.Run(0)
	if err != nil {
		t.Fatalf("parity error persists after rewrite: %v", err)
	}
}

func TestParityOnRowLoad(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	m.FlipBit(RowAddr(3)+100, 0)
	var reg VectorReg
	var err error
	k.Go("vec", func(p *sim.Proc) { err = m.LoadRow(p, 3, &reg) })
	k.Run(0)
	if err == nil {
		t.Fatal("row load missed parity error")
	}
	// The row port reports the exact failing byte, not just the row.
	pe, ok := err.(*ParityError)
	if !ok || pe.Addr != RowAddr(3)+100 {
		t.Fatalf("err = %v, want ParityError at %d", err, RowAddr(3)+100)
	}
	// A clean row on the same port still loads fine.
	k.Go("vec2", func(p *sim.Proc) { err = m.LoadRow(p, 4, &reg) })
	k.Run(0)
	if err != nil {
		t.Fatalf("clean row load failed: %v", err)
	}
	// Two faulty bytes: the first (lowest-address) one is reported, the
	// way a sequential per-byte parity check on the row stream sees it.
	m.FlipBit(RowAddr(5)+60, 2)
	m.FlipBit(RowAddr(5)+61, 7)
	k.Go("vec3", func(p *sim.Proc) { err = m.LoadRow(p, 5, &reg) })
	k.Run(0)
	pe, ok = err.(*ParityError)
	if !ok || pe.Addr != RowAddr(5)+60 {
		t.Fatalf("err = %v, want ParityError at first bad byte %d", err, RowAddr(5)+60)
	}
}

func TestQuickVectorRegRoundTrip(t *testing.T) {
	f := func(vals []uint64, idx uint8) bool {
		var r VectorReg
		n := len(vals)
		if n > F64PerRow {
			n = F64PerRow
		}
		for i := 0; i < n; i++ {
			r.SetF64(i, fparith.F64(vals[i]))
		}
		for i := 0; i < n; i++ {
			if r.F64(i) != fparith.F64(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMemoryWordRoundTrip(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		k := sim.NewKernel()
		m := New(k, "q")
		w := int(addr % Words)
		m.PokeWord(w, v)
		return m.PeekWord(w) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorReg32View(t *testing.T) {
	var r VectorReg
	r.SetF64(0, fparith.F64(0x0123456789ABCDEF))
	// Little-endian layout: low word first.
	if uint32(r.F32(0)) != 0x89ABCDEF || uint32(r.F32(1)) != 0x01234567 {
		t.Fatalf("32-bit view = %x %x", uint32(r.F32(0)), uint32(r.F32(1)))
	}
}

func TestPokeBytesParity(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	data := []byte{0xFF, 0x00, 0xA5, 0x5A}
	m.PokeBytes(100, data)
	got := m.PeekBytes(100, 4)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %x", i, got[i])
		}
	}
	// Parity must be valid after a block poke.
	var err error
	k.Go("cp", func(p *sim.Proc) { _, err = m.ReadWord(p, 25) })
	k.Run(0)
	if err != nil {
		t.Fatalf("parity invalid after PokeBytes: %v", err)
	}
}

func TestRowAddrAndBankPorts(t *testing.T) {
	if RowAddr(3) != 3*RowBytes {
		t.Fatal("RowAddr wrong")
	}
	k := sim.NewKernel()
	m := New(k, "n0")
	if m.BankPort(BankA) == m.BankPort(BankB) {
		t.Fatal("banks share a port")
	}
	if m.WordPort() == nil {
		t.Fatal("no word port")
	}
}

func TestCountersAdvance(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	var reg VectorReg
	k.Go("p", func(p *sim.Proc) {
		if _, err := m.ReadWord(p, 0); err != nil {
			t.Errorf("read: %v", err)
		}
		m.WriteWord(p, 1, 5)
		if err := m.LoadRow(p, 0, &reg); err != nil {
			t.Errorf("load: %v", err)
		}
		if err := m.StoreRow(p, 1, &reg); err != nil {
			t.Errorf("store: %v", err)
		}
	})
	k.Run(0)
	if m.WordReads != 1 || m.WordWrites != 1 || m.RowLoads != 1 || m.RowStores != 1 {
		t.Fatalf("counters: %d %d %d %d", m.WordReads, m.WordWrites, m.RowLoads, m.RowStores)
	}
}
