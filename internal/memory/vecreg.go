package memory

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

// VectorReg is one of the node's vector registers: a 1024-byte latch that
// exchanges whole rows with main memory in a single 400 ns parallel
// transfer and streams elements to the arithmetic unit at one 32-bit word
// per 62.5 ns (one 64-bit word per 125 ns).
type VectorReg struct {
	Name string
	buf  [RowBytes]byte
}

// LoadRow fills the register from memory row `row` in one timed row
// transfer on the row's bank port.
func (m *Memory) LoadRow(p *sim.Proc, row int, r *VectorReg) error {
	if row < 0 || row >= NumRows {
		return fmt.Errorf("memory: row %d out of range", row)
	}
	m.bankPort[BankOf(row)].Use(p, sim.RowAccess)
	m.RowLoads++
	c := m.chunk(row)
	if c == nil {
		// Unmaterialized rows read as zeroes and can hold no fault.
		copy(r.buf[:], zeroChunk.data[:])
		return nil
	}
	if m.faulted != 0 {
		if err := m.validateRange(RowAddr(row), RowBytes); err != nil {
			return err
		}
	}
	copy(r.buf[:], c.data[:])
	return nil
}

// StoreRow writes the register back to memory row `row` in one timed row
// transfer.
func (m *Memory) StoreRow(p *sim.Proc, row int, r *VectorReg) error {
	if row < 0 || row >= NumRows {
		return fmt.Errorf("memory: row %d out of range", row)
	}
	m.bankPort[BankOf(row)].Use(p, sim.RowAccess)
	m.RowStores++
	c := m.writableRow(row)
	copy(c.data[:], r.buf[:])
	m.wrote(c, 0, RowBytes)
	return nil
}

// MoveRow copies one row to another using a vector register: two timed
// row transfers (load + store), 800 ns total. This is the paper's "move
// data physically rather than keeping linked lists of pointers" fast
// path used for pivoting and sorting.
func (m *Memory) MoveRow(p *sim.Proc, dst, src int, scratch *VectorReg) error {
	if err := m.LoadRow(p, src, scratch); err != nil {
		return err
	}
	return m.StoreRow(p, dst, scratch)
}

// BankPort exposes the bank resource for components that stream elements
// directly (the arithmetic unit's operand fetch).
func (m *Memory) BankPort(b Bank) *sim.Resource { return m.bankPort[b] }

// WordPort exposes the random-access port resource (shared by the control
// processor and link DMA).
func (m *Memory) WordPort() *sim.Resource { return m.wordPort }

// F64 returns 64-bit element i of the register (i in 0..127).
func (r *VectorReg) F64(i int) fparith.F64 {
	return fparith.F64(binary.LittleEndian.Uint64(r.buf[i*8:]))
}

// SetF64 stores 64-bit element i of the register.
func (r *VectorReg) SetF64(i int, v fparith.F64) {
	binary.LittleEndian.PutUint64(r.buf[i*8:], uint64(v))
}

// F32 returns 32-bit element i of the register (i in 0..255).
func (r *VectorReg) F32(i int) fparith.F32 {
	return fparith.F32(binary.LittleEndian.Uint32(r.buf[i*4:]))
}

// Bytes exposes the raw register contents (for link DMA staging).
func (r *VectorReg) Bytes() []byte { return r.buf[:] }
