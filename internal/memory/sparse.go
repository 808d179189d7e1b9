package memory

import "math/bits"

// Sparse row store. A node's 1 MB is modelled as 1024 independently
// allocated row chunks so host footprint scales with the rows a program
// actually touches, not with the configured size — the difference
// between a 12-cube needing >4.5 GB before the first event fires and
// one needing a few megabytes. The simulated machine is unchanged: the
// hardware always has all 1024 rows, and every timed operation charges
// the same port time whether or not the host has materialized the row.
//
// Representation invariants:
//
//   - m.rows is the row table: m.rows[r] is row r's chunk, or nil when
//     row r has never been written. The table starts empty and grows by
//     doubling, up to NumRows entries, only as far as the highest row
//     written, so a node that writes two low rows holds a two-entry
//     table rather than 1024 pointers. A row past the end of the table
//     has never been written either.
//   - A row never written is all-zero bytes with a clear fault ledger
//     — exactly the shared zeroChunk — and it can hold no fault
//     (FlipBit materializes before corrupting), so validation skips it.
//   - Reads of an unmaterialized row are served from &zeroChunk; no
//     read ever materializes a row or grows the table (typed row views
//     are the exception: they are write-through aliases, so handing one
//     out must materialize).
//   - Any write path copies the zero row into a private chunk first
//     (copy-on-write of the shared zero page) via writableRow. The
//     shared zeroChunk itself is never written.
//   - A row at or past NumRows (an address past the 1 MB store) panics
//     on every path, read or write, whatever the table's length.
type rowChunk struct {
	data [RowBytes]byte
	bad  [RowBytes / 8]byte // fault ledger, one bit per byte (parity.go)
}

// Row addressing: addr>>rowShift is the row, addr&rowMask the offset
// within it.
const (
	rowShift = 10
	rowMask  = RowBytes - 1
)

// zeroChunk backs every unmaterialized row's reads.
var zeroChunk rowChunk

// chunk returns the chunk backing a row, or nil for a row never
// written. Only a row past the table pays the store bound check.
func (m *Memory) chunk(row int) *rowChunk {
	if uint(row) < uint(len(m.rows)) {
		return m.rows[row]
	}
	_ = storeRows[row]
	return nil
}

// storeRows is indexed only for its bounds check: a row outside the
// store panics with the index error a full 1024-entry table would
// raise, on every path, whatever the table's length.
var storeRows [NumRows]struct{}

// row returns the chunk backing a row for reading; unmaterialized rows
// read from the shared zero chunk.
func (m *Memory) row(row int) *rowChunk {
	if c := m.chunk(row); c != nil {
		return c
	}
	return &zeroChunk
}

// writableRow returns the chunk backing a row for writing,
// materializing a private copy of the zero row on first touch. The
// cold path lives in materializeRow so this wrapper inlines into the
// word/row accessors.
func (m *Memory) writableRow(row int) *rowChunk {
	if uint(row) < uint(len(m.rows)) && m.rows[row] != nil {
		return m.rows[row]
	}
	return m.materializeRow(row)
}

// materializeRow performs the copy-on-write of the shared zero row: a
// fresh chunk is already the zero row's content (zero data, clear
// ledger), so the "copy" is the allocation itself.
func (m *Memory) materializeRow(row int) *rowChunk {
	m.cover(row)
	c := new(rowChunk)
	m.rows[row] = c
	m.materialized++
	m.cowCopies++
	return c
}

// cover grows the row table to reach row: to the smallest power of two
// above row, which at least doubles the table and never passes NumRows.
func (m *Memory) cover(row int) {
	_ = storeRows[row]
	if row < len(m.rows) {
		return
	}
	grown := make([]*rowChunk, 1<<bits.Len(uint(row)))
	copy(grown, m.rows)
	m.rows = grown
}

// MaterializeAll eagerly backs every row — the pre-sparse dense layout.
// It exists as the dense fallback for differential tests and for
// memory-layout experiments that want allocation out of the measured
// region; production paths must never call it (a grep guard in
// sparse_test.go enforces that no eager full-image allocation
// reappears).
func (m *Memory) MaterializeAll() {
	m.cover(NumRows - 1)
	for i := range m.rows {
		if m.rows[i] == nil {
			m.rows[i] = new(rowChunk)
			m.materialized++
		}
	}
}

// MaterializedRows reports how many of the 1024 rows are resident on
// the host (written at least once, or eagerly backed).
func (m *Memory) MaterializedRows() int64 { return m.materialized }

// CowCopies reports how many writes had to copy the shared zero row
// into a private chunk (write-triggered materializations; eager
// MaterializeAll backing is excluded).
func (m *Memory) CowCopies() int64 { return m.cowCopies }

// ResidentBytes is the host footprint of the materialized rows: data
// plus fault ledger.
func (m *Memory) ResidentBytes() int64 {
	return m.materialized * (RowBytes + RowBytes/8)
}

// RowResident reports whether a row is materialized.
func (m *Memory) RowResident(row int) bool { return m.chunk(row) != nil }

// allZero reports whether b contains only zero bytes (checked a word at
// a time; b is at most one row).
func allZero(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if b[i]|b[i+1]|b[i+2]|b[i+3]|b[i+4]|b[i+5]|b[i+6]|b[i+7] != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}
