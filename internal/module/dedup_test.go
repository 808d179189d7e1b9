package module

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"tseries/internal/sim"
)

// diskWrite runs one timed write to completion.
func diskWrite(k *sim.Kernel, d *Disk, key string, data []byte) {
	k.Go("w", func(p *sim.Proc) { d.Write(p, key, data) })
	k.Run(0)
}

// diskRead runs one timed read to completion.
func diskRead(k *sim.Kernel, d *Disk, key string) ([]byte, error) {
	var out []byte
	var err error
	k.Go("r", func(p *sim.Proc) { out, err = d.Read(p, key) })
	k.Run(0)
	return out, err
}

// TestDiskZeroSegmentsAreFree: checkpoint chunks of untouched node
// memory — all-zero, row-aligned — must cost nothing at rest while the
// platter still behaves as if it held every byte.
func TestDiskZeroSegmentsAreFree(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	zeros := make([]byte, 8*diskRowBytes)
	diskWrite(k, d, "ckpt", zeros)

	if got := d.ResidentBytes(); got != 0 {
		t.Fatalf("all-zero block resident bytes = %d, want 0", got)
	}
	if d.RowsZero != 8 || d.RowsCopied != 0 {
		t.Fatalf("RowsZero=%d RowsCopied=%d, want 8/0", d.RowsZero, d.RowsCopied)
	}
	if got := d.Size("ckpt"); got != len(zeros) {
		t.Fatalf("logical size = %d, want %d", got, len(zeros))
	}
	if !d.Verify("ckpt") {
		t.Fatal("all-zero block fails verification")
	}
	got, err := diskRead(k, d, "ckpt")
	if err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("read of all-zero block: %v", err)
	}
}

// TestDiskDedupAcrossBlocks: two checkpoints with identical rows share
// storage; deleting one leaves the other intact.
func TestDiskDedupAcrossBlocks(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	payload := make([]byte, 4*diskRowBytes)
	for i := range payload {
		// byte patterns repeat every 256 bytes; stamp in the row number so
		// the four rows are distinct and dedup only across blocks.
		payload[i] = byte(i*7) ^ byte(i/diskRowBytes)
	}
	diskWrite(k, d, "ckpt0", payload)
	diskWrite(k, d, "ckpt1", payload)

	if d.RowsCopied != 4 || d.RowsShared != 4 {
		t.Fatalf("RowsCopied=%d RowsShared=%d, want 4/4", d.RowsCopied, d.RowsShared)
	}
	if got, want := d.ResidentBytes(), int64(len(payload)); got != want {
		t.Fatalf("resident = %d after dedup'd rewrite, want %d", got, want)
	}
	d.Delete("ckpt0")
	if got, want := d.ResidentBytes(), int64(len(payload)); got != want {
		t.Fatalf("resident = %d after deleting one sharer, want %d", got, want)
	}
	got, err := diskRead(k, d, "ckpt1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("surviving block damaged: %v", err)
	}
	d.Delete("ckpt1")
	if got := d.ResidentBytes(); got != 0 {
		t.Fatalf("resident = %d after deleting every block, want 0", got)
	}
}

// TestDiskRotOnZeroSegmentCaught is the fault-model edge for the sparse
// platter: media rot landing in a segment that was never backed by host
// storage (an all-zero run, stored as nothing) must materialize the
// segment, corrupt it, and be caught by the checksum on the next read —
// exactly as on a dense disk. A second block sharing the same logical
// content stays clean: rot privatizes, it does not spread.
func TestDiskRotOnZeroSegmentCaught(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	zeros := make([]byte, 4*diskRowBytes)
	diskWrite(k, d, "a", zeros)
	diskWrite(k, d, "b", zeros)
	if d.ResidentBytes() != 0 {
		t.Fatal("zero blocks should be free before the fault")
	}

	if key := d.CorruptNth(0); key != "a" {
		t.Fatalf("corrupted %q, want a", key)
	}
	// The rot forced one segment resident.
	if got := d.ResidentBytes(); got != int64(diskRowBytes) {
		t.Fatalf("resident = %d after rot, want %d", got, diskRowBytes)
	}
	if d.Verify("a") {
		t.Fatal("rotted block passes verification")
	}
	_, err := diskRead(k, d, "a")
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Key != "a" {
		t.Fatalf("read of rotted zero block: %v, want CorruptError on a", err)
	}
	// The twin with identical logical content is unharmed.
	got, err := diskRead(k, d, "b")
	if err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("rot spread to sharing block: %v", err)
	}
	// Rewriting heals, and the store goes free again.
	diskWrite(k, d, "a", zeros)
	if !d.Verify("a") {
		t.Fatal("rewrite did not heal the rotted block")
	}
	if got := d.ResidentBytes(); got != 0 {
		t.Fatalf("resident = %d after heal, want 0", got)
	}
}

// TestDiskRotOnSharedRowPrivatizes: rot in a deduplicated non-zero row
// damages only the block it struck.
func TestDiskRotOnSharedRowPrivatizes(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	payload := make([]byte, 2*diskRowBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	diskWrite(k, d, "a", payload)
	diskWrite(k, d, "b", payload)
	resident := d.ResidentBytes()

	if key := d.CorruptNth(0); key != "a" {
		t.Fatalf("corrupted %q, want a", key)
	}
	if got := d.ResidentBytes(); got != resident+int64(diskRowBytes) {
		t.Fatalf("resident = %d after privatizing rot, want %d", got, resident+int64(diskRowBytes))
	}
	if d.Verify("a") {
		t.Fatal("rotted block passes verification")
	}
	got, err := diskRead(k, d, "b")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("rot leaked into sharing block: %v", err)
	}
}

// TestDiskElidedTail stores a block whose content past its first
// 2300 bytes is a zero tail left off the data, as a snapshot chunk
// frame carries it. The disk must hold the logical block: its checksum
// is the CRC-32 of the dense bytes, reads return them, and media rot
// in an elided row is still caught.
func TestDiskElidedTail(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	const size = 8 * diskRowBytes
	dense := make([]byte, size)
	for i := 0; i < diskRowBytes; i++ {
		dense[i] = byte(i*5 + 1) // row 0; row 1 stays zero
	}
	for i := 2 * diskRowBytes; i < 2300; i++ {
		dense[i] = byte(i) | 1 // row 2 ends mid-row
	}
	d.store("blk", dense[:2300], size)

	if d.Size("blk") != size || d.BytesWritten != size {
		t.Fatalf("size %d, bytes written %d, want %d", d.Size("blk"), d.BytesWritten, size)
	}
	if d.RowsZero != 6 || d.RowsCopied != 2 {
		t.Fatalf("RowsZero=%d RowsCopied=%d, want 6/2", d.RowsZero, d.RowsCopied)
	}
	if got, want := d.sums["blk"], crc32.ChecksumIEEE(dense); got != want {
		t.Fatalf("checksum %#x, want the dense bytes' CRC %#x", got, want)
	}
	if b := d.blocks["blk"]; b.carried() != 3*diskRowBytes {
		t.Fatalf("carried %d bytes, want %d", b.carried(), 3*diskRowBytes)
	}
	if got, ok := d.Peek("blk"); !ok || !bytes.Equal(got, dense) {
		t.Fatal("Peek did not return the dense block")
	}
	got, err := diskRead(k, d, "blk")
	if err != nil || !bytes.Equal(got, dense) {
		t.Fatalf("Read did not return the dense block: %v", err)
	}

	// Position 30·131 = 3930 falls in row 3, the first elided row.
	if key := d.CorruptNth(30); key != "blk" {
		t.Fatalf("corrupted %q, want blk", key)
	}
	if d.Verify("blk") {
		t.Fatal("rot in an elided row passes verification")
	}
	_, err = diskRead(k, d, "blk")
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Key != "blk" {
		t.Fatalf("read of a block rotted in its elided tail: %v, want CorruptError", err)
	}
}
