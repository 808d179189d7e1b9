package memory

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

// TestLazyMaterialization pins the sparse store's core promise: a fresh
// memory owns no row storage, reads never allocate any, and only the
// rows actually written become resident.
func TestLazyMaterialization(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	if got := m.MaterializedRows(); got != 0 {
		t.Fatalf("fresh memory has %d materialized rows, want 0", got)
	}

	// Reads of every flavour are served from the shared zero row.
	if m.PeekWord(12345) != 0 || m.PeekF64(5000) != 0 || m.PeekByte(Bytes-1) != 0 {
		t.Fatal("unwritten memory did not read as zero")
	}
	if b := m.PeekBytes(RowBytes*100+7, 3*RowBytes); !allZero(b) {
		t.Fatal("unwritten block did not read as zero")
	}
	var reg VectorReg
	k.Go("rd", func(p *sim.Proc) {
		if err := m.LoadRow(p, 512, &reg); err != nil {
			t.Errorf("LoadRow of unwritten row: %v", err)
		}
		if _, err := m.ReadWord(p, Words-1); err != nil {
			t.Errorf("ReadWord of unwritten word: %v", err)
		}
	})
	k.Run(0)
	if !allZero(reg.Bytes()) {
		t.Fatal("vector load of unwritten row was not zero")
	}
	if got := m.MaterializedRows(); got != 0 {
		t.Fatalf("reads materialized %d rows, want 0", got)
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes = %d after reads, want 0", got)
	}

	// Writes materialize exactly the rows they touch.
	m.PokeWord(0, 1)                 // row 0
	m.PokeF64(RowBytes/8*3+5, 7)     // row 3
	m.PokeByte(RowAddr(1023)+99, 42) // row 1023
	if got := m.MaterializedRows(); got != 3 {
		t.Fatalf("materialized %d rows, want 3", got)
	}
	if got := m.CowCopies(); got != 3 {
		t.Fatalf("CowCopies = %d, want 3", got)
	}
	for _, row := range []int{0, 3, 1023} {
		if !m.RowResident(row) {
			t.Fatalf("row %d should be resident", row)
		}
	}
	if m.RowResident(512) {
		t.Fatal("row 512 resident despite never being written")
	}
	if got, want := m.ResidentBytes(), int64(3*(RowBytes+RowBytes/8)); got != want {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
	if got := unsafe.Sizeof(rowChunk{}); got != RowBytes+RowBytes/8 {
		t.Fatalf("a row chunk is %d bytes, but ResidentBytes counts %d", got, RowBytes+RowBytes/8)
	}

	// Re-writing a resident row is not another copy-on-write.
	m.PokeWord(1, 2)
	if got := m.CowCopies(); got != 3 {
		t.Fatalf("CowCopies after re-write = %d, want 3", got)
	}
}

// TestPokeBytesZeroElision: storing zero bytes over never-written rows
// is free (snapshot restores of untouched memory must not densify the
// store), but zeroes written over live data do land.
func TestPokeBytesZeroElision(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	m.PokeBytes(RowAddr(10), make([]byte, 4*RowBytes))
	if got := m.MaterializedRows(); got != 0 {
		t.Fatalf("zero store materialized %d rows, want 0", got)
	}

	m.PokeByte(RowAddr(20), 0xFF)
	m.PokeBytes(RowAddr(20), make([]byte, RowBytes))
	if m.PeekByte(RowAddr(20)) != 0 {
		t.Fatal("zero store over live data did not land")
	}
	if got := m.MaterializedRows(); got != 1 {
		t.Fatalf("materialized %d rows, want 1", got)
	}

	// ZeroBytes clears live rows and leaves never-written ones alone.
	m.PokeByte(RowAddr(21)+7, 0x07) // odd parity
	m.ZeroBytes(RowAddr(21), 3*RowBytes)
	if m.PeekByte(RowAddr(21)+7) != 0 {
		t.Fatal("ZeroBytes over live data did not land")
	}
	if got := m.MaterializedRows(); got != 2 || m.RowResident(22) || m.RowResident(23) {
		t.Fatalf("ZeroBytes materialized rows: %d resident, want 2", got)
	}
	if err := m.validateRange(RowAddr(21), RowBytes); err != nil {
		t.Fatalf("parity invalid after ZeroBytes: %v", err)
	}

	// A block with one non-zero byte materializes only the rows it spans.
	b := make([]byte, 2*RowBytes)
	b[RowBytes+5] = 9
	m.PokeBytes(RowAddr(30), b)
	if m.RowResident(30) != true || m.RowResident(31) != true {
		// Both rows materialize: the store is chunked per row, and row 31
		// holds the non-zero byte while row 30's segment is all zero.
		t.Log("per-row elision detail changed")
	}
	if m.PeekByte(RowAddr(31)+5) != 9 {
		t.Fatal("sparse block store lost its payload")
	}
}

// TestFaultOnUnwrittenRowMaterializesAndIsCaught is the fault-model
// edge the sparse layout must not weaken: the simulated DRAM exists (and
// rots) whether or not the program has stored to it. A bit flip in a
// never-written row materializes the row, and the next validated read
// reports the exact faulted address.
func TestFaultOnUnwrittenRowMaterializesAndIsCaught(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	addr := RowAddr(700) + 123
	if m.RowResident(700) {
		t.Fatal("row 700 resident before the fault")
	}
	m.FlipBit(addr, 2)
	if !m.RowResident(700) {
		t.Fatal("FlipBit did not materialize the faulted row")
	}
	if got := m.MaterializedRows(); got != 1 {
		t.Fatalf("materialized %d rows, want 1", got)
	}

	k.Go("cp", func(p *sim.Proc) {
		// Reads away from the fault stay clean.
		if _, err := m.ReadWord(p, 0); err != nil {
			t.Errorf("clean word read: %v", err)
		}
		_, err := m.ReadWord(p, addr/4)
		var pe *ParityError
		if !errors.As(err, &pe) {
			t.Errorf("faulted read err = %v, want ParityError", err)
		} else if pe.Addr != addr {
			t.Errorf("ParityError.Addr = %#x, want %#x", pe.Addr, addr)
		}
		// The row port sees the same fault.
		var reg VectorReg
		err = m.LoadRow(p, 700, &reg)
		if !errors.As(err, &pe) {
			t.Errorf("faulted row load err = %v, want ParityError", err)
		} else if pe.Addr != addr {
			t.Errorf("row-load ParityError.Addr = %#x, want %#x", pe.Addr, addr)
		}
	})
	k.Run(0)
}

// TestSparseDenseDifferential pins the sparse store byte-identical to
// the dense layout under a randomized operation stream. The dense twin
// is the same Memory with every row eagerly backed (MaterializeAll, the
// pre-sparse representation); every mutation is applied to both and the
// full 1 MB images must agree at the end — and at checkpoints along the
// way, so a divergence localises to one op batch.
func TestSparseDenseDifferential(t *testing.T) {
	k := sim.NewKernel()
	sp := New(k, "sparse")
	de := New(k, "dense")
	de.MaterializeAll()
	if got := de.MaterializedRows(); got != NumRows {
		t.Fatalf("dense twin has %d rows, want %d", got, NumRows)
	}

	rng := rand.New(rand.NewSource(0x7eedbeef))
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	k.Go("driver", func(p *sim.Proc) {
		var rs, rd VectorReg
		for i := 0; i < ops; i++ {
			switch rng.Intn(8) {
			case 0:
				w, v := rng.Intn(Words), rng.Uint32()
				sp.PokeWord(w, v)
				de.PokeWord(w, v)
			case 1:
				e, v := rng.Intn(Bytes/8), fparith.F64(rng.Uint64())
				sp.PokeF64(e, v)
				de.PokeF64(e, v)
			case 2:
				a, v := rng.Intn(Bytes), byte(rng.Intn(256))
				sp.PokeByte(a, v)
				de.PokeByte(a, v)
			case 3:
				// Block store, sometimes all-zero (the elided path, or
				// ZeroBytes against the dense twin's zero store),
				// sometimes crossing row boundaries.
				n := 1 + rng.Intn(3*RowBytes)
				a := rng.Intn(Bytes - n)
				b := make([]byte, n)
				zero := rng.Intn(3) == 0
				if !zero {
					rng.Read(b)
				}
				if zero && i%2 == 0 {
					sp.ZeroBytes(a, n)
				} else {
					sp.PokeBytes(a, b)
				}
				de.PokeBytes(a, b)
			case 4:
				dst, src := rng.Intn(NumRows), rng.Intn(NumRows)
				if err := sp.MoveRow(p, dst, src, &rs); err != nil {
					t.Errorf("sparse MoveRow: %v", err)
				}
				if err := de.MoveRow(p, dst, src, &rd); err != nil {
					t.Errorf("dense MoveRow: %v", err)
				}
			case 5:
				src, dst := rng.Intn(NumRows), rng.Intn(NumRows)
				if err := sp.LoadRow(p, src, &rs); err != nil {
					t.Errorf("sparse LoadRow: %v", err)
				}
				if err := de.LoadRow(p, src, &rd); err != nil {
					t.Errorf("dense LoadRow: %v", err)
				}
				if !bytes.Equal(rs.Bytes(), rd.Bytes()) {
					t.Fatalf("op %d: vector loads of row %d differ", i, src)
				}
				if err := sp.StoreRow(p, dst, &rs); err != nil {
					t.Errorf("sparse StoreRow: %v", err)
				}
				if err := de.StoreRow(p, dst, &rd); err != nil {
					t.Errorf("dense StoreRow: %v", err)
				}
			case 6:
				// Write-through typed view.
				row, e := rng.Intn(NumRows), rng.Intn(F64PerRow)
				v := rng.Uint64()
				vs, vd := sp.RowF64s(row), de.RowF64s(row)
				vs[e] = v
				vd[e] = v
				sp.FlushRowF64s(row, vs, F64PerRow)
				de.FlushRowF64s(row, vd, F64PerRow)
			case 7:
				w, v := rng.Intn(Words), rng.Uint32()
				sp.WriteWord(p, w, v)
				de.WriteWord(p, w, v)
				gs, err := sp.ReadWord(p, w)
				if err != nil {
					t.Errorf("sparse ReadWord: %v", err)
				}
				gd, err := de.ReadWord(p, w)
				if err != nil {
					t.Errorf("dense ReadWord: %v", err)
				}
				if gs != v || gd != v {
					t.Fatalf("op %d: word readback %#x/%#x, want %#x", i, gs, gd, v)
				}
			}
			if i%500 == 499 && !bytes.Equal(sp.PeekBytes(0, Bytes), de.PeekBytes(0, Bytes)) {
				t.Fatalf("images diverged by op %d", i)
			}
		}
	})
	k.Run(0)

	if !bytes.Equal(sp.PeekBytes(0, Bytes), de.PeekBytes(0, Bytes)) {
		t.Fatal("final images differ")
	}
	if got := sp.MaterializedRows(); got == 0 || got >= NumRows {
		t.Fatalf("sparse twin materialized %d rows, want 0 < n < %d", got, NumRows)
	}

	// Identical faults must be caught identically: flip the same bit in
	// both stores and compare the reported addresses.
	addr := rng.Intn(Bytes)
	sp.FlipBit(addr, 5)
	de.FlipBit(addr, 5)
	k.Go("chk", func(p *sim.Proc) {
		_, errS := sp.ReadWord(p, addr/4)
		_, errD := de.ReadWord(p, addr/4)
		var ps, pd *ParityError
		if !errors.As(errS, &ps) || !errors.As(errD, &pd) {
			t.Errorf("fault detection differs: sparse %v, dense %v", errS, errD)
		} else if ps.Addr != pd.Addr || ps.Addr != addr {
			t.Errorf("fault addrs: sparse %#x, dense %#x, want %#x", ps.Addr, pd.Addr, addr)
		}
	})
	k.Run(0)
}

// TestNoEagerFullImageAllocations greps the package for the dense
// layout sneaking back in: outside MaterializeAll (the explicit dense
// fallback) no production path may allocate the full 1 MB image or back
// all rows eagerly. Untouched nodes on a 4096-node machine must stay at
// zero resident rows.
func TestNoEagerFullImageAllocations(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []*regexp.Regexp{
		regexp.MustCompile(`make\(\[\]byte,\s*Bytes\b`),
		regexp.MustCompile(`make\(\[\]byte,\s*NumRows\s*\*\s*RowBytes`),
		regexp.MustCompile(`\[Bytes\]byte`),
		regexp.MustCompile(`make\(\[\]rowChunk`), // value slice = eager backing
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, re := range banned {
				if re.MatchString(line) {
					t.Errorf("%s:%d: eager full-image allocation %q — the store is sparse; rows materialize on first write",
						f, i+1, strings.TrimSpace(line))
				}
			}
		}
		// MaterializeAll is the one sanctioned eager loop; a second one is
		// a dense path growing back.
		if n := strings.Count(string(src), "new(rowChunk)"); f == "sparse.go" && n > 2 {
			t.Errorf("%s: %d new(rowChunk) sites, want ≤ 2 (writableRow's cold path and MaterializeAll)", f, n)
		} else if f != "sparse.go" && n > 0 {
			t.Errorf("%s: allocates rowChunks directly; go through writableRow", f)
		}
	}
}

// TestRowTableSizedByUse checks that a node's host footprint starts
// near zero and grows only as far as the rows written: a fresh memory
// holds no row table, a row past the table reads zero without growing
// it, and an address past the 1 MB store still panics.
func TestRowTableSizedByUse(t *testing.T) {
	// allocBytes reads the process-wide TotalAlloc, so the runtime's own
	// allocations in the window only add bytes: take the least of
	// several calls, each on a fresh kernel.
	least := ^uint64(0)
	for range 5 {
		k := sim.NewKernel()
		least = min(least, allocBytes(func() { New(k, "n0") }))
	}
	if least >= 1024 {
		t.Fatalf("fresh memory.New allocates %d bytes, want under 1 KB", least)
	}
	m := New(sim.NewKernel(), "n0")
	m.PokeWord(3, 0xdeadbeef) // row 0
	if len(m.rows) != 1 {
		t.Fatalf("one write to row 0 grew the table to %d entries, want 1", len(m.rows))
	}
	for _, row := range []int{1, 700, NumRows - 1} {
		if m.RowResident(row) {
			t.Errorf("row %d past the table is resident", row)
		}
		if w := m.PeekWord(row * WordsPerRow); w != 0 {
			t.Errorf("row %d past the table reads %#x, want 0", row, w)
		}
		if !allZero(m.PeekBytes(RowAddr(row), RowBytes)) {
			t.Errorf("row %d past the table does not read as zeros", row)
		}
	}
	if len(m.rows) != 1 || m.MaterializedRows() != 1 {
		t.Fatalf("reads grew the table to %d entries, %d resident rows; want 1, 1", len(m.rows), m.MaterializedRows())
	}
	m.PokeF64(300*F64PerRow, 1) // row 300: the table doubles up to 512 entries
	if len(m.rows) != 512 || m.PeekWord(3) != 0xdeadbeef || !m.RowResident(300) {
		t.Fatalf("after a write to row 300: %d table entries, row 0 word %#x, row 300 resident %v",
			len(m.rows), m.PeekWord(3), m.RowResident(300))
	}
	for _, f := range []func(){
		func() { m.PeekWord(Words) },
		func() { m.PokeWord(Words, 1) },
		func() { m.PeekByte(-1) },
		func() { m.RowResident(NumRows) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an address past the 1 MB store did not panic")
				}
			}()
			f()
		}()
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
