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
	"hash/crc32"
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
// payload. Rows reached through the dedup index are immutable and may
// back many blocks; a row privatized by media rot (CorruptNth) leaves
// the index and belongs to a single block.
type storedRow struct {
	refs    int64
	hash    uint64
	data    []byte
	indexed bool
}

// diskBlock is one stored block: its logical length plus one entry per
// row-sized segment. A nil entry is an all-zero segment — the common
// case for checkpoint chunks of untouched node memory — which costs
// nothing to store.
type diskBlock struct {
	size int
	rows []*storedRow
}

// zeroSeg is what store compares segments against to elide them.
var zeroSeg [diskRowBytes]byte

// Disk is a module's system disk. Transfers are timed; contents are real
// bytes so a restore genuinely rewinds the machine. Every block is
// stored with a checksum, verified on read — a block rotted on the
// platter (or corrupted by a fault plan) surfaces as a CorruptError
// instead of silently restoring garbage into node memory.
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
	sums   map[string]uint32
	// dedup indexes live, unrotted rows by content hash; buckets hold
	// hash collisions, resolved by full compare.
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
		sums:     map[string]uint32{},
		dedup:    map[uint64][]*storedRow{},
	}
}

// hashRow is FNV-1a over one segment's content.
func hashRow(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// intern stores one non-zero segment, sharing an existing row when the
// content is already resident.
func (d *Disk) intern(seg []byte) *storedRow {
	h := hashRow(seg)
	for _, r := range d.dedup[h] {
		if bytes.Equal(r.data, seg) {
			r.refs++
			d.RowsShared++
			return r
		}
	}
	r := &storedRow{refs: 1, hash: h, data: append([]byte(nil), seg...), indexed: true}
	d.dedup[h] = append(d.dedup[h], r)
	d.RowsCopied++
	d.resident += int64(len(seg))
	return r
}

// releaseRow drops one reference; the last reference evicts an indexed
// row from the dedup index.
func (d *Disk) releaseRow(r *storedRow) {
	if r == nil {
		return
	}
	if r.refs--; r.refs > 0 {
		return
	}
	d.resident -= int64(len(r.data))
	if !r.indexed {
		return
	}
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

// bytes materializes the block's first n bytes of logical content
// after head spare bytes, so a caller can prefix a header without a
// second allocation.
func (b *diskBlock) bytes(head, n int) []byte {
	out := make([]byte, head+n)
	for i, r := range b.rows {
		if r != nil && i*diskRowBytes < n {
			copy(out[head+i*diskRowBytes:], r.data)
		}
	}
	return out
}

// carried is the length of the block's content up to the end of its
// last non-nil row: everything after it is zero.
func (b *diskBlock) carried() int {
	for i := len(b.rows) - 1; i >= 0; i-- {
		if b.rows[i] != nil {
			return min(b.size, (i+1)*diskRowBytes)
		}
	}
	return 0
}

// crc computes the checksum of the block's logical content without
// materializing it. Each run of all-zero segments is folded in at
// once (link.CRCUpdateZeros) instead of being hashed.
func (b *diskBlock) crc() uint32 {
	var c uint32 // the CRC of no bytes
	zeros := 0
	for i, r := range b.rows {
		if r == nil {
			zeros += min(diskRowBytes, b.size-i*diskRowBytes)
			continue
		}
		c = crc32.Update(link.CRCUpdateZeros(c, zeros), crc32.IEEETable, r.data)
		zeros = 0
	}
	return link.CRCUpdateZeros(c, zeros)
}

// store records a block of logical length size whose content is data
// followed by zero bytes up to size, with its checksum (untimed
// bookkeeping; callers charge wire/platter time themselves). Row-sized
// segments dedup against everything already on the platter, and the
// zero tail past data costs nothing: its segments are nil like any
// other all-zero segment.
func (d *Disk) store(key string, data []byte, size int) {
	if old, ok := d.blocks[key]; ok {
		d.release(old)
	}
	nb := &diskBlock{size: size, rows: make([]*storedRow, 0, (size+diskRowBytes-1)/diskRowBytes)}
	for off := 0; off < size; off += diskRowBytes {
		n := min(diskRowBytes, size-off)
		seg := data[min(off, len(data)):min(off+n, len(data))]
		if bytes.Equal(seg, zeroSeg[:len(seg)]) {
			nb.rows = append(nb.rows, nil)
			d.RowsZero++
			continue
		}
		if len(seg) < n {
			// The carried bytes end inside this segment.
			seg = append(seg[:len(seg):len(seg)], zeroSeg[len(seg):n]...)
		}
		nb.rows = append(nb.rows, d.intern(seg))
	}
	d.blocks[key] = nb
	d.sums[key] = nb.crc()
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
	if b.crc() != d.sums[key] {
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
	if b.crc() != d.sums[key] {
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
	delete(d.sums, key)
}

// Keys reports how many blocks are stored.
func (d *Disk) Keys() int { return len(d.blocks) }

// ResidentBytes reports the unique payload bytes backing the platter on
// the host — after dedup and zero elision, typically far below the sum
// of logical block sizes.
func (d *Disk) ResidentBytes() int64 { return d.resident }

// CorruptNth flips one bit in the n-th stored block (by sorted key
// order, modulo the block count) without updating its checksum — the
// fault injector's media-rot primitive. The damaged row is privatized
// first, so blocks sharing its content elsewhere stay intact. It
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
		pos := (n * 131) % b.size
		seg, off := pos/diskRowBytes, pos%diskRowBytes
		segLen := b.size - seg*diskRowBytes
		if segLen > diskRowBytes {
			segLen = diskRowBytes
		}
		priv := &storedRow{refs: 1}
		if r := b.rows[seg]; r == nil {
			priv.data = make([]byte, segLen)
		} else {
			priv.data = append([]byte(nil), r.data...)
			d.releaseRow(r)
		}
		d.resident += int64(len(priv.data))
		priv.data[off] ^= 1 << uint(n%8)
		b.rows[seg] = priv
	}
	return key
}
