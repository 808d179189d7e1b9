package memory

import (
	"encoding/binary"
	"unsafe"
)

// Typed row views. The vector arithmetic unit streams a row's elements
// as whole words, two operands per cycle; the simulator mirrors that by
// handing the FPU a row as a []uint64 / []uint32 instead of making it
// decode one element per closure call through PeekF64/PeekF32.
//
// On a little-endian host (every platform we run on in practice) a view
// aliases the row chunk's backing bytes directly: reads see the store,
// and element writes land in place. On a big-endian host the view is a
// decoded copy, and FlushRow* writes it back. Either way a caller that
// writes through a view MUST call the matching FlushRow* afterwards —
// it performs the big-endian write-back and clears the fault ledger of
// the written bytes, which raw view writes bypass.
//
// Because a view is write-through, handing one out materializes the
// row: the alternative — aliasing the shared zero chunk — would let a
// view write corrupt every unmaterialized row in the machine.

// hostLittleEndian reports whether the host lays integers out
// little-endian, in which case views can alias the byte store.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// RowF64s returns row `row` as its 128 64-bit elements.
func (m *Memory) RowF64s(row int) []uint64 {
	c := m.writableRow(row)
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&c.data[0])), F64PerRow)
	}
	out := make([]uint64, F64PerRow)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(c.data[8*i:])
	}
	return out
}

// RowF32s returns row `row` as its 256 32-bit elements.
func (m *Memory) RowF32s(row int) []uint32 {
	c := m.writableRow(row)
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&c.data[0])), F32PerRow)
	}
	out := make([]uint32, F32PerRow)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(c.data[4*i:])
	}
	return out
}

// FlushRowF64s completes a write of elements s[0:n] into row `row`
// through a view obtained from RowF64s: it writes the elements back on
// hosts where the view was a copy, and clears the fault ledger of the
// bytes covered by the written prefix (only those — a fault pending
// elsewhere in the row must stay detectable).
func (m *Memory) FlushRowF64s(row int, s []uint64, n int) {
	c := m.writableRow(row)
	if n > 0 && unsafe.Pointer(&s[0]) != unsafe.Pointer(&c.data[0]) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(c.data[8*i:], s[i])
		}
	}
	m.wrote(c, 0, 8*n)
}

// FlushRowF32s is the 32-bit counterpart of FlushRowF64s.
func (m *Memory) FlushRowF32s(row int, s []uint32, n int) {
	c := m.writableRow(row)
	if n > 0 && unsafe.Pointer(&s[0]) != unsafe.Pointer(&c.data[0]) {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(c.data[4*i:], s[i])
		}
	}
	m.wrote(c, 0, 4*n)
}
