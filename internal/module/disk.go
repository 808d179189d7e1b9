// Package module models the T Series packaging level above the node:
// eight nodes, a system board, and a system disk form a module — the
// smallest homogeneous unit of larger systems, with 128 MFLOPS peak and
// 8 MB of user RAM.
//
// The system board is connected to its eight nodes by a thread of
// communication links that traverses them; system boards of different
// modules are joined by a separate system ring. The system disk's
// primary function is recording memory snapshots that checkpoint
// computations for error recovery: a snapshot takes about 15 seconds
// regardless of configuration (every module snapshots in parallel
// through its own thread and disk), and the user chooses the interval —
// about 10 minutes is a good compromise.
package module

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// diskRowBytes is the dedup granule: one node-memory row, so snapshot
// chunks (row-aligned multiples of the row size) dedup row-for-row
// against earlier checkpoints.
const diskRowBytes = memory.RowBytes

// storedRow is one reference-counted content-addressed row of block
// payload. Every stored row is in the dedup index and immutable, and
// may back many blocks.
type storedRow struct {
	refs int64
	hash uint64
	data []byte
}

// diskBlock is one stored block: its logical length, one entry per
// row-sized segment up to its last non-zero one, and its fault ledger.
// A nil entry, like every segment past the entries, is all zero — the
// common case for checkpoint chunks of untouched node memory — and
// costs nothing to store.
//
// The ledger, flips, holds the ascending bit positions (8b+j is bit
// 1<<j of byte b) that CorruptNth has inverted since the block was
// stored; the rows keep the stored content, and reads apply the flips.
// CRC-32 is affine over GF(2), so the block's CRC differs from the one
// recorded at store time exactly when the CRC syndrome of the flips
// over the block's length is nonzero (link.CRCCatches): two flips of
// one bit cancel, and a multiple of the generator polynomial passes,
// as on a real disk.
type diskBlock struct {
	size  int
	rows  []*storedRow
	flips []int
}

// zeroSeg is what store compares segments against to elide them.
var zeroSeg [diskRowBytes]byte

// Disk is a module's system disk. Transfers are timed; contents are real
// bytes so a restore genuinely rewinds the machine. Every block is
// stored with a CRC-32, verified on read — a block rotted on the
// platter (or corrupted by a fault plan) surfaces as a CorruptError
// instead of silently restoring garbage into node memory. Only media
// rot changes a stored byte, so the check is decided from each block's
// fault ledger, and no CRC is computed over content.
//
// At rest, blocks are deduplicated at row granularity: each row-sized
// segment is stored once, shared by reference count across every block
// (and every successive checkpoint) with identical content, and
// all-zero segments are free. Timed transfers always charge the
// logical block length — the simulated platter holds the full bytes;
// only the host representation is sparse.
type Disk struct {
	Name string

	// SeekTime is charged once per stream start.
	SeekTime sim.Duration
	// ByteTime is the sustained transfer cost per byte (≈1 MB/s — faster
	// than the system thread that feeds it, so the thread is the
	// snapshot bottleneck, as the paper's 15 s figure implies).
	ByteTime sim.Duration

	busy *sim.Resource

	blocks map[string]*diskBlock
	// dedup indexes every stored row by content hash; buckets hold hash
	// collisions, resolved by full compare.
	dedup map[uint64][]*storedRow

	BytesWritten, BytesRead int64
	// Corrupted counts reads that failed their checksum.
	Corrupted int64

	// Dedup bookkeeping: segments stored as fresh copies, segments that
	// shared an existing row, all-zero segments elided entirely, and the
	// unique payload bytes currently resident on the host.
	RowsCopied, RowsShared, RowsZero int64
	resident                         int64
}

// CorruptError reports a disk block whose contents no longer match the
// checksum recorded when it was written.
type CorruptError struct {
	Disk string
	Key  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("disk %s: block %q fails its checksum", e.Disk, e.Key)
}

// NewDisk creates a system disk.
func NewDisk(k *sim.Kernel, name string) *Disk {
	return &Disk{
		Name:     name,
		SeekTime: 20 * sim.Millisecond,
		ByteTime: sim.Microsecond, // 1 MB/s sustained
		busy:     sim.NewResource(k, name+"/disk", 1),
		blocks:   map[string]*diskBlock{},
		dedup:    map[uint64][]*storedRow{},
	}
}

// rowSeed keys the dedup index's hash. The hash only picks a bucket and
// nothing ranges over the index, so a seed that differs from process to
// process changes no output.
var rowSeed = maphash.MakeSeed()

// intern stores one non-zero segment, sharing an existing row when the
// content is already resident.
func (d *Disk) intern(seg []byte) *storedRow {
	h := maphash.Bytes(rowSeed, seg)
	for _, r := range d.dedup[h] {
		if bytes.Equal(r.data, seg) {
			r.refs++
			d.RowsShared++
			return r
		}
	}
	r := &storedRow{refs: 1, hash: h, data: append([]byte(nil), seg...)}
	d.dedup[h] = append(d.dedup[h], r)
	d.RowsCopied++
	d.resident += int64(len(seg))
	return r
}

// releaseRow drops one reference; the last reference evicts the row
// from the dedup index.
func (d *Disk) releaseRow(r *storedRow) {
	if r == nil {
		return
	}
	if r.refs--; r.refs > 0 {
		return
	}
	d.resident -= int64(len(r.data))
	bucket := d.dedup[r.hash]
	for i, x := range bucket {
		if x == r {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(d.dedup, r.hash)
	} else {
		d.dedup[r.hash] = bucket
	}
}

// release returns every row of a block to the pool.
func (d *Disk) release(b *diskBlock) {
	for _, r := range b.rows {
		d.releaseRow(r)
	}
}

// bytes materializes the block's first n bytes of current content
// after head spare bytes, so a caller can prefix a header without a
// second allocation: the stored rows with the ledger's flips applied.
func (b *diskBlock) bytes(head, n int) []byte {
	out := make([]byte, head+n)
	for i, r := range b.rows {
		if r != nil && i*diskRowBytes < n {
			copy(out[head+i*diskRowBytes:], r.data)
		}
	}
	for _, pos := range b.flips {
		if pos>>3 >= n {
			break
		}
		out[head+pos>>3] ^= 1 << (pos & 7)
	}
	return out
}

// carried is the length of the block's content up to the end of its
// last stored row or of the last row media rot has flipped, whichever
// is later: everything after it is zero.
func (b *diskBlock) carried() int {
	n := len(b.rows) * diskRowBytes
	if k := len(b.flips); k > 0 {
		n = max(n, (b.flips[k-1]>>3/diskRowBytes+1)*diskRowBytes)
	}
	return min(b.size, n)
}

// store records a block of logical length size whose content is data
// (no longer than size) followed by zero bytes up to size (untimed
// bookkeeping; callers charge wire/platter time themselves). Row-sized
// segments dedup against everything already on the platter. All-zero
// segments cost nothing, and a block keeps row entries only up to its
// last non-zero segment, so the zero tail past data costs not even
// that.
func (d *Disk) store(key string, data []byte, size int) {
	if old, ok := d.blocks[key]; ok {
		d.release(old)
	}
	nb := &diskBlock{size: size, rows: make([]*storedRow, (len(data)+diskRowBytes-1)/diskRowBytes)}
	zero, live := (size+diskRowBytes-1)/diskRowBytes, 0
	for i := range nb.rows {
		off := i * diskRowBytes
		n := min(diskRowBytes, size-off)
		seg := data[off:min(off+n, len(data))]
		if bytes.Equal(seg, zeroSeg[:len(seg)]) {
			continue
		}
		if len(seg) < n {
			// The carried bytes end inside this segment.
			seg = append(seg[:len(seg):len(seg)], zeroSeg[len(seg):n]...)
		}
		nb.rows[i] = d.intern(seg)
		zero, live = zero-1, i+1
	}
	nb.rows = nb.rows[:live]
	d.RowsZero += int64(zero)
	d.blocks[key] = nb
	d.BytesWritten += int64(size)
}

// Write stores a named block, consuming seek plus transfer time. The
// block is copied, so later mutation of the caller's slice cannot
// rewrite the stored checkpoint.
func (d *Disk) Write(p *sim.Proc, key string, data []byte) {
	d.busy.Use(p, d.SeekTime+sim.Duration(len(data))*d.ByteTime)
	d.store(key, data, len(data))
}

// Read retrieves a copy of a named block, verifying its checksum.
func (d *Disk) Read(p *sim.Proc, key string) ([]byte, error) {
	b, err := d.read(p, key)
	if err != nil {
		return nil, err
	}
	return b.bytes(0, b.size), nil
}

// read charges a timed read of a named block and verifies its
// checksum, leaving it to the caller to materialize as much of the
// block as it needs.
func (d *Disk) read(p *sim.Proc, key string) (*diskBlock, error) {
	b, ok := d.blocks[key]
	if !ok {
		return nil, fmt.Errorf("disk %s: no block %q", d.Name, key)
	}
	d.busy.Use(p, d.SeekTime+sim.Duration(b.size)*d.ByteTime)
	d.BytesRead += int64(b.size)
	if link.CRCCatches(b.size, b.flips) {
		d.Corrupted++
		return nil, &CorruptError{Disk: d.Name, Key: key}
	}
	return b, nil
}

// Peek materializes a copy of a block's current content without
// consuming time or verifying the checksum — directory access for
// callers (the ring backup) that charge their own transfer time.
func (d *Disk) Peek(key string) ([]byte, bool) {
	b, ok := d.blocks[key]
	if !ok {
		return nil, false
	}
	return b.bytes(0, b.size), true
}

// Size reports a block's logical length (untimed), or -1 if absent.
func (d *Disk) Size(key string) int {
	b, ok := d.blocks[key]
	if !ok {
		return -1
	}
	return b.size
}

// Has reports whether a block exists (untimed directory lookup).
func (d *Disk) Has(key string) bool {
	_, ok := d.blocks[key]
	return ok
}

// Verify reports whether a block exists and matches its checksum
// (untimed; a restore scrubs the whole snapshot before streaming it
// into node memory).
func (d *Disk) Verify(key string) bool {
	b, ok := d.blocks[key]
	if !ok {
		return false
	}
	if link.CRCCatches(b.size, b.flips) {
		d.Corrupted++
		return false
	}
	return true
}

// Delete removes a block (untimed).
func (d *Disk) Delete(key string) {
	if b, ok := d.blocks[key]; ok {
		d.release(b)
	}
	delete(d.blocks, key)
}

// Keys reports how many blocks are stored.
func (d *Disk) Keys() int { return len(d.blocks) }

// ResidentBytes reports the unique payload bytes backing the platter on
// the host — after dedup and zero elision, typically far below the sum
// of logical block sizes.
func (d *Disk) ResidentBytes() int64 { return d.resident }

// CorruptNth flips one bit in the n-th stored block (by sorted key
// order, modulo the block count) without updating its checksum — the
// fault injector's media-rot primitive. The bit is 8·(n·131 mod size) +
// n mod 8, computed in unsigned 64-bit arithmetic so that every index
// maps into the block. It goes into the block's fault ledger, so blocks
// sharing its rows stay intact, and flipping it again cancels it. It
// returns the damaged key, or "" when the disk is empty.
func (d *Disk) CorruptNth(n int) string {
	if len(d.blocks) == 0 {
		return ""
	}
	keys := make([]string, 0, len(d.blocks))
	for k := range d.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := keys[((n%len(keys))+len(keys))%len(keys)]
	b := d.blocks[key]
	if b.size > 0 {
		u := uint64(n)
		pos := int(u*131%uint64(b.size))*8 + int(u%8)
		if i, found := slices.BinarySearch(b.flips, pos); found {
			b.flips = slices.Delete(b.flips, i, i+1)
		} else {
			b.flips = slices.Insert(b.flips, i, pos)
		}
	}
	return key
}
