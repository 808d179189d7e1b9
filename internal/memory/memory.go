// Package memory models a T Series node's main store: 1 MByte of
// dual-ported dynamic RAM.
//
// The control processor and the communication links see the memory as a
// single bank of 256K 32-bit words through a conventional random-access
// port (400 ns per word). The vector arithmetic unit sees it as two banks
// of 1024-byte rows — 256 rows in bank A and 768 in bank B — and can move
// an entire row to or from a vector register in 400 ns (2560 MB/s). The
// two banks feed the arithmetic pipelines with two operands per 125 ns
// cycle. One parity bit guards each byte.
//
// On the host the store is sparse: rows are materialized on first write
// and unwritten rows are served from a shared zero row (sparse.go), so
// a 4096-node machine costs megabytes, not gigabytes, until programs
// actually touch their memory.
package memory

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

// Geometry of the node store, from the paper.
const (
	RowBytes    = 1024 // one memory row / vector register
	NumRows     = 1024 // 1 MByte total
	BankARows   = 256  // rows 0..255
	BankBRows   = 768  // rows 256..1023
	Bytes       = RowBytes * NumRows
	Words       = Bytes / 4 // 256K 32-bit words
	WordsPerRow = RowBytes / 4
	F64PerRow   = RowBytes / 8 // 128 64-bit elements per vector
	F32PerRow   = RowBytes / 4 // 256 32-bit elements per vector
)

// Bank identifies one of the two vector-port banks.
type Bank int

// The two banks.
const (
	BankA Bank = iota
	BankB
)

func (b Bank) String() string {
	if b == BankA {
		return "A"
	}
	return "B"
}

// BankOf reports which bank a row lives in.
func BankOf(row int) Bank {
	if row < BankARows {
		return BankA
	}
	return BankB
}

// ParityError reports a parity mismatch detected on a read.
type ParityError struct {
	Addr int // byte address
}

func (e *ParityError) Error() string {
	return fmt.Sprintf("memory: parity error at byte %#x", e.Addr)
}

// Memory is one node's 1 MB dual-ported store. Timed operations take the
// calling simulation process and consume simulated time on the
// appropriate port; Peek/Poke variants are untimed for test and workload
// setup (they model the state a program would have built earlier).
type Memory struct {
	// rows is the row table, materialized lazily and only as long as
	// the highest row written: a nil entry, or a row past its end, has
	// never been written and reads as zeroes. See sparse.go for the
	// representation invariants.
	rows []*rowChunk

	// faulted counts FlipBit calls. While zero (the universal case
	// outside fault experiments) the fault ledger is clear, so writes
	// skip it and reads skip validation entirely (parity.go).
	faulted int64

	// wordPort serialises random access by the control processor and the
	// link DMA engines.
	wordPort *sim.Resource
	// bankPort[b] serialises row transfers and vector streaming on each
	// bank; the two banks operate in parallel.
	bankPort [2]*sim.Resource

	// Counters for the bandwidth experiments.
	WordReads, WordWrites int64
	RowLoads, RowStores   int64

	// Sparse-store counters (sparse.go): resident row chunks, and
	// write-triggered copies of the shared zero row.
	materialized int64
	cowCopies    int64
}

// New allocates a node memory attached to kernel k. The name
// distinguishes nodes in multi-node machines. No row storage, and no
// row table, is allocated until a row is first written.
func New(k *sim.Kernel, name string) *Memory {
	m := &Memory{}
	m.wordPort = sim.NewResource(k, name+"/wordport", 1)
	m.bankPort[BankA] = sim.NewResource(k, name+"/bankA", 1)
	m.bankPort[BankB] = sim.NewResource(k, name+"/bankB", 1)
	return m
}

// FlipBit corrupts one data bit without updating parity, modelling a
// transient DRAM fault: it toggles the byte's fault-ledger bit, so the
// next validated read of that byte reports a ParityError.
// A fault in a never-written row materializes it first — the hardware's
// DRAM exists (and rots) whether or not the program has stored to it.
func (m *Memory) FlipBit(addr int, bit uint) {
	c := m.writableRow(addr >> rowShift)
	off := addr & rowMask
	c.data[off] ^= 1 << (bit % 8)
	c.bad[off>>3] ^= 1 << (off & 7)
	m.faulted++
}

// Untimed accessors (setup/inspection).

// PokeWord stores a 32-bit word at word index w without consuming time.
func (m *Memory) PokeWord(w int, v uint32) {
	a := w * 4
	c := m.writableRow(a >> rowShift)
	off := a & rowMask
	binary.LittleEndian.PutUint32(c.data[off:], v)
	m.wrote(c, off, 4)
}

// PeekWord loads the 32-bit word at word index w without consuming time.
func (m *Memory) PeekWord(w int) uint32 {
	a := w * 4
	return binary.LittleEndian.Uint32(m.row(a >> rowShift).data[a&rowMask:])
}

// PokeF64 stores a 64-bit float at 64-bit element index e.
func (m *Memory) PokeF64(e int, v fparith.F64) {
	a := e * 8
	c := m.writableRow(a >> rowShift)
	off := a & rowMask
	binary.LittleEndian.PutUint64(c.data[off:], uint64(v))
	m.wrote(c, off, 8)
}

// PeekF64 loads the 64-bit float at 64-bit element index e.
func (m *Memory) PeekF64(e int) fparith.F64 {
	a := e * 8
	return fparith.F64(binary.LittleEndian.Uint64(m.row(a >> rowShift).data[a&rowMask:]))
}

// PokeF32 stores a 32-bit float at 32-bit element index e.
func (m *Memory) PokeF32(e int, v fparith.F32) { m.PokeWord(e, uint32(v)) }

// PeekF32 loads the 32-bit float at 32-bit element index e.
func (m *Memory) PeekF32(e int) fparith.F32 { return fparith.F32(m.PeekWord(e)) }

// Timed random-access port (400 ns per 32-bit word, shared FIFO).

// ReadWord performs a timed 32-bit read through the random-access port.
func (m *Memory) ReadWord(p *sim.Proc, w int) (uint32, error) {
	m.wordPort.Use(p, sim.WordAccess)
	m.WordReads++
	if m.faulted != 0 {
		if err := m.validateRange(w*4, 4); err != nil {
			return 0, err
		}
	}
	return m.PeekWord(w), nil
}

// WriteWord performs a timed 32-bit write through the random-access port.
func (m *Memory) WriteWord(p *sim.Proc, w int, v uint32) {
	m.wordPort.Use(p, sim.WordAccess)
	m.WordWrites++
	m.PokeWord(w, v)
}

// Read64 reads a 64-bit operand as two timed word reads (the control
// processor is a 32-bit machine).
func (m *Memory) Read64(p *sim.Proc, e int) (fparith.F64, error) {
	lo, err := m.ReadWord(p, 2*e)
	if err != nil {
		return 0, err
	}
	hi, err := m.ReadWord(p, 2*e+1)
	if err != nil {
		return 0, err
	}
	return fparith.F64(uint64(lo) | uint64(hi)<<32), nil
}

// Write64 writes a 64-bit operand as two timed word writes.
func (m *Memory) Write64(p *sim.Proc, e int, v fparith.F64) {
	m.WriteWord(p, 2*e, uint32(v))
	m.WriteWord(p, 2*e+1, uint32(uint64(v)>>32))
}

// PokeByte stores one byte (untimed).
func (m *Memory) PokeByte(addr int, v byte) {
	c := m.writableRow(addr >> rowShift)
	off := addr & rowMask
	c.data[off] = v
	m.wrote(c, off, 1)
}

// PeekByte loads one byte (untimed, no parity check).
func (m *Memory) PeekByte(addr int) byte {
	return m.row(addr >> rowShift).data[addr&rowMask]
}

// PokeBytes stores a block (untimed) — program loading, DMA completion.
// An all-zero store into a never-written row is elided: the row already
// holds exactly those bytes, so snapshot restores of untouched memory
// stay allocation-free.
func (m *Memory) PokeBytes(addr int, b []byte) {
	for len(b) > 0 {
		row, off := addr>>rowShift, addr&rowMask
		seg := RowBytes - off
		if seg > len(b) {
			seg = len(b)
		}
		if m.chunk(row) != nil || !allZero(b[:seg]) {
			c := m.writableRow(row)
			copy(c.data[off:off+seg], b[:seg])
			m.wrote(c, off, seg)
		}
		addr += seg
		b = b[seg:]
	}
}

// ZeroBytes clears n bytes from addr (untimed): PokeBytes of n zero
// bytes without the zeros. Only materialized rows are written; a
// never-written row already reads zero and stays unmaterialized.
func (m *Memory) ZeroBytes(addr, n int) {
	for n > 0 {
		row, off := addr>>rowShift, addr&rowMask
		seg := min(RowBytes-off, n)
		if c := m.chunk(row); c != nil {
			clear(c.data[off : off+seg])
			m.wrote(c, off, seg)
		}
		addr += seg
		n -= seg
	}
}

// PeekBytes copies a block out (untimed).
func (m *Memory) PeekBytes(addr, n int) []byte {
	out := make([]byte, n)
	m.PeekInto(addr, out)
	return out
}

// PeekInto copies len(dst) bytes starting at addr into dst (untimed).
// Never-written rows are skipped, not copied, so dst must already be
// zero where they fall — as a fresh allocation is.
func (m *Memory) PeekInto(addr int, dst []byte) {
	for i := 0; i < len(dst); {
		a := addr + i
		row, off := a>>rowShift, a&rowMask
		seg := RowBytes - off
		if seg > len(dst)-i {
			seg = len(dst) - i
		}
		if c := m.chunk(row); c != nil {
			copy(dst[i:i+seg], c.data[off:off+seg])
		}
		i += seg
	}
}

// RowAddr returns the first byte address of a row.
func RowAddr(row int) int { return row * RowBytes }
