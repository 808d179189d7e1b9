package memory

import "math/bits"

// Parity as a fault ledger. One parity bit guards each byte of the
// store, and every write stores the parity of the bytes it wrote, so a
// byte fails its check only after FlipBit has changed its data since
// its last write. The store therefore keeps, in place of the parity
// bits, which bytes would fail: bit b of a row chunk's bad[i] is set
// exactly when the byte at row-local offset 8i+b fails its parity
// check. FlipBit toggles the bit (two flips in one byte cancel, as they
// do under real parity), a write clears the bits of the bytes it wrote,
// and a validated read reports the lowest set bit in its range.
//
// m.faulted counts FlipBit calls. While it is zero — the universal case
// outside fault-injection experiments — the ledger is clear, so writes
// leave it alone and reads skip validation: a run that flips no bit
// does no parity work at all. Unmaterialized rows hold no fault
// (FlipBit materializes before corrupting), so validation skips them.

// wrote clears the ledger bits of the n bytes a write just stored at
// row-local offset off of chunk c.
func (m *Memory) wrote(c *rowChunk, off, n int) {
	if m.faulted != 0 {
		for g, end := off>>3, off+n; g<<3 < end; g++ {
			c.bad[g] &^= groupMask(g, off, end)
		}
	}
}

// groupMask returns the ledger bits of group g (row-local bytes 8g to
// 8g+7) that guard bytes in the row-local range [off, end).
func groupMask(g, off, end int) byte {
	lo, hi := max(off-8*g, 0), min(end-8*g, 8)
	return byte(0xFF<<lo) & byte(0xFF>>(8-hi))
}

// validateRange reports the lowest-address byte in [addr, addr+n) that
// fails its parity check as a ParityError: the fault a sequential
// per-byte check on the hardware's row stream would flag first.
func (m *Memory) validateRange(addr, n int) error {
	for end := addr + n; addr < end; {
		row, off := addr>>rowShift, addr&rowMask
		stop := min(RowBytes, off+end-addr)
		if c := m.chunk(row); c != nil {
			for g := off >> 3; g<<3 < stop; g++ {
				if b := c.bad[g] & groupMask(g, off, stop); b != 0 {
					return &ParityError{Addr: addr - off + 8*g + bits.TrailingZeros8(b)}
				}
			}
		}
		addr += stop - off
	}
	return nil
}
