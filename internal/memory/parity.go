package memory

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Parity engine. One parity bit guards each byte of the store; the bits
// are packed eight to a byte in each row chunk's par array, so the
// parity byte at row-local index i summarises the eight data bytes at
// row-local offsets 8i..8i+7 (bit b of the summary is the parity of
// data byte 8i+b). All maintenance is done a word at a time: writes
// fold the parity of eight (or four) bytes in a handful of ALU ops, and
// validation compares whole summary bytes, falling back to a per-bit
// scan only to localise a detected fault.
//
// m.faulted counts FlipBit calls. While it is zero — the universal case
// outside fault-injection experiments — every byte's stored parity is
// known to match its data (all write paths restore it), so reads skip
// validation entirely and a row load is a plain copy. Unmaterialized
// rows are zero data with zero parity — consistent by construction —
// and FlipBit materializes before corrupting, so validation skips them.

// parityByteOf folds one 64-bit little-endian data word into its parity
// summary byte: bit b is the (odd) parity of byte b of w. The xor ladder
// reduces each byte to its parity in the byte's LSB; the multiply
// gathers the eight LSBs into the top byte (each (byte k, multiplier
// byte j) product lands at bit 8k+7j+7, all 64 positions distinct, so no
// carries interfere).
func parityByteOf(w uint64) byte {
	w ^= w >> 4
	w ^= w >> 2
	w ^= w >> 1
	return byte((w & 0x0101010101010101) * 0x0102040810204080 >> 56)
}

// parityNibbleOf is the 32-bit variant: bit b (b in 0..3) is the parity
// of byte b of w.
func parityNibbleOf(w uint32) byte {
	w ^= w >> 4
	w ^= w >> 2
	w ^= w >> 1
	return byte((w & 0x01010101) * 0x01020408 >> 24)
}

// refreshChunkParity recomputes the stored parity summaries for the
// data bytes at row-local offsets [off, off+n) of chunk c, leaving bits
// that guard bytes outside the range untouched. Interior 8-byte groups
// cost one word load and one parityByteOf each: on a little-endian host
// the loop reads the chunk through a fixed-size word view, so no group
// re-slices the data.
func refreshChunkParity(c *rowChunk, off, n int) {
	if n <= 0 {
		return
	}
	end := off + n
	if r := off % 8; r != 0 {
		g := off - r
		stop := min(g+8, end)
		patchChunkParity(c, g, r, stop-g)
		off = stop
	}
	// Whole groups [off/8, end/8); off is 8-aligned here unless the head
	// group already reached end.
	lo, hi := off>>3, end>>3
	par := c.par[lo:hi]
	if hostLittleEndian {
		words := (*[RowBytes / 8]uint64)(unsafe.Pointer(&c.data))[lo:hi]
		for g, w := range words {
			par[g] = parityByteOf(w)
		}
	} else {
		for g := range par {
			par[g] = parityByteOf(binary.LittleEndian.Uint64(c.data[8*(lo+g):]))
		}
	}
	if tail := end &^ 7; off <= tail && tail < end {
		patchChunkParity(c, tail, 0, end-tail)
	}
}

// patchChunkParity recomputes parity bits [lo, hi) of the summary byte
// that guards the 8-byte group starting at row-local offset g (g must
// be 8-aligned).
func patchChunkParity(c *rowChunk, g, lo, hi int) {
	p := parityByteOf(binary.LittleEndian.Uint64(c.data[g:]))
	mask := byte(1<<uint(hi)-1) &^ byte(1<<uint(lo)-1)
	c.par[g>>3] = c.par[g>>3]&^mask | p&mask
}

// validateRange compares the stored parity summaries against the data
// in absolute byte range [addr, addr+n) and reports the first
// (lowest-address) mismatched byte as a ParityError — the same fault a
// sequential per-byte check on the hardware's row stream would flag
// first. Unmaterialized rows are consistent by construction and skip.
func (m *Memory) validateRange(addr, n int) error {
	for n > 0 {
		row, off := addr>>rowShift, addr&rowMask
		seg := RowBytes - off
		if seg > n {
			seg = n
		}
		if c := m.chunk(row); c != nil {
			if err := validateChunk(c, addr-off, off, seg); err != nil {
				return err
			}
		}
		addr += seg
		n -= seg
	}
	return nil
}

// validateChunk checks row-local offsets [off, off+n) of chunk c;
// rowBase is the row's absolute first byte address, used to report the
// fault's absolute location.
func validateChunk(c *rowChunk, rowBase, off, n int) error {
	data, par := c.data[:], c.par[:]
	end := off + n
	if r := off % 8; r != 0 {
		g := off - r
		stop := min(g+8, end)
		if err := validateChunkGroup(c, rowBase, g, r, stop-g); err != nil {
			return err
		}
		off = stop
	}
	for ; off+8 <= end; off += 8 {
		if par[off>>3] != parityByteOf(binary.LittleEndian.Uint64(data[off:])) {
			return validateChunkGroup(c, rowBase, off, 0, 8)
		}
	}
	if off < end {
		return validateChunkGroup(c, rowBase, off, 0, end-off)
	}
	return nil
}

// validateChunkGroup checks parity bits [lo, hi) of the group at
// row-local offset g (8-aligned) and localises the lowest mismatched
// byte.
func validateChunkGroup(c *rowChunk, rowBase, g, lo, hi int) error {
	p := parityByteOf(binary.LittleEndian.Uint64(c.data[g:]))
	mask := byte(1<<uint(hi)-1) &^ byte(1<<uint(lo)-1)
	diff := (p ^ c.par[g>>3]) & mask
	if diff == 0 {
		return nil
	}
	return &ParityError{Addr: rowBase + g + bits.TrailingZeros8(diff)}
}
