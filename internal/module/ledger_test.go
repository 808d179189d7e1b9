package module

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tseries/internal/sim"
)

// diskRef is the reference disk for TestDiskFaultLedgerMatchesCRC: every
// block kept dense, with the CRC-32 of its content recorded when it was
// stored, the way a real disk keeps it. Media rot flips a stored bit
// and leaves the recorded CRC alone.
type diskRef struct {
	data      map[string][]byte // current content, rot included
	stored    map[string][]byte // content as stored
	sums      map[string]uint32
	corrupted int64
}

func (r *diskRef) store(key string, data []byte, size int) {
	dense := make([]byte, size)
	copy(dense, data)
	r.data[key] = dense
	r.stored[key] = append([]byte(nil), dense...)
	r.sums[key] = crc32.ChecksumIEEE(dense)
}

// corruptNth flips the bit Disk.CorruptNth documents: bit n mod 8 of
// byte n·131 mod size, in unsigned 64-bit arithmetic, of the n-th
// block in sorted key order.
func (r *diskRef) corruptNth(n int) {
	keys := make([]string, 0, len(r.data))
	for k := range r.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := r.data[keys[((n%len(keys))+len(keys))%len(keys)]]
	if len(b) > 0 {
		u := uint64(n)
		b[u*131%uint64(len(b))] ^= 1 << (u % 8)
	}
}

// intact reports whether a block's content still matches its CRC.
func (r *diskRef) intact(key string) bool {
	return crc32.ChecksumIEEE(r.data[key]) == r.sums[key]
}

// resident is the payload a deduplicating host must hold: each distinct
// non-zero row-sized segment of the stored content, once.
func (r *diskRef) resident() int64 {
	segs := map[string]bool{}
	var n int64
	for _, b := range r.stored {
		for off := 0; off < len(b); off += diskRowBytes {
			seg := b[off:min(off+diskRowBytes, len(b))]
			if s := string(seg); !segs[s] && !bytes.Equal(seg, zeroSeg[:len(seg)]) {
				segs[s] = true
				n += int64(len(seg))
			}
		}
	}
	return n
}

// check compares every block of d with the reference: Verify, Read,
// Peek, restore's carried prefix, the Corrupted count and the resident
// payload.
func (r *diskRef) check(k *sim.Kernel, d *Disk) error {
	keys := make([]string, 0, len(r.data))
	for key := range r.data {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want, intact := r.data[key], r.intact(key)
		if got := d.Verify(key); got != intact {
			return fmt.Errorf("%s: Verify %v, CRC says %v", key, got, intact)
		}
		if got, ok := d.Peek(key); !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("%s: Peek differs from the reference", key)
		}
		b := d.blocks[key]
		const head = 4
		c := b.carried()
		msg := b.bytes(head, c)
		if !bytes.Equal(msg[:head], make([]byte, head)) || !bytes.Equal(msg[head:], want[:c]) ||
			!bytes.Equal(want[c:], make([]byte, len(want)-c)) {
			return fmt.Errorf("%s: carried %d bytes do not hold the block's content", key, c)
		}
		got, err := diskRead(k, d, key)
		var ce *CorruptError
		switch {
		case intact && (err != nil || !bytes.Equal(got, want)):
			return fmt.Errorf("%s: Read of an intact block: %v", key, err)
		case !intact && (!errors.As(err, &ce) || ce.Key != key):
			return fmt.Errorf("%s: Read of a rotted block: %v, want CorruptError", key, err)
		}
		if !intact {
			r.corrupted += 2 // the Verify miss and the Read miss
		}
	}
	if d.Corrupted != r.corrupted {
		return fmt.Errorf("Corrupted = %d, want %d", d.Corrupted, r.corrupted)
	}
	if got, want := d.ResidentBytes(), r.resident(); got != want {
		return fmt.Errorf("resident = %d, want %d", got, want)
	}
	return nil
}

// TestDiskFaultLedgerMatchesCRC holds the disk's fault ledger to real
// CRC-32: random stores and re-stores of zero, elided-tail and shared
// blocks, and random CorruptNth calls, go to a Disk and to diskRef.
// Indices come from a small set, so flips repeat and cancel. After every
// step Verify, Read, Peek, Corrupted and restore's carried prefix must
// agree with the reference.
func TestDiskFaultLedgerMatchesCRC(t *testing.T) {
	seeds, steps := 60, 120
	if testing.Short() {
		seeds = 15
	}
	// A few row patterns, so blocks share rows.
	var pool [][]byte
	for i := 0; i < 3; i++ {
		row := make([]byte, diskRowBytes)
		for j := range row {
			row[j] = byte(j*(2*i+3) + i)
		}
		pool = append(pool, row)
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		d := NewDisk(k, "t")
		ref := &diskRef{data: map[string][]byte{}, stored: map[string][]byte{}, sums: map[string]uint32{}}
		indices := make([]int, 6)
		for i := range indices {
			indices[i] = rng.Intn(1 << 20)
		}
		indices[0] = math.MaxInt
		for step := 0; step < steps; step++ {
			if len(ref.data) == 0 || rng.Intn(3) == 0 {
				key := string(rune('a' + rng.Intn(4)))
				size := (1 + rng.Intn(6)) * diskRowBytes
				if rng.Intn(3) == 0 {
					size -= 1 + rng.Intn(diskRowBytes-1) // a short last row
				}
				var data []byte
				switch rng.Intn(3) {
				case 0: // all zero, carried or elided
					data = make([]byte, rng.Intn(size+1))
				case 1, 2: // shared and zero rows, then an elided tail
					dense := make([]byte, size)
					for off := 0; off < size; off += diskRowBytes {
						if c := rng.Intn(len(pool) + 1); c < len(pool) {
							copy(dense[off:], pool[c])
						}
					}
					data = dense[:rng.Intn(size+1)]
				}
				d.store(key, data, size)
				ref.store(key, data, size)
			} else {
				n := indices[rng.Intn(len(indices))]
				d.CorruptNth(n)
				ref.corruptNth(n)
			}
			if err := ref.check(k, d); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// polyFlips returns the error pattern P(x)·x^shift in an n-byte block,
// where P is the CRC-32 generator polynomial: bit t of the block's bit
// stream (bit t&7 of byte t>>3, each byte least significant bit first)
// is the coefficient of x^(8n−1−t). Every multiple of P leaves the CRC
// unchanged.
func polyFlips(n, shift int) []int {
	const p uint64 = 1<<32 | 0x04C11DB7 // x³² + x²⁶ + … + x + 1
	var flips []int
	for i := 32; i >= 0; i-- {
		if p>>uint(i)&1 != 0 {
			flips = append(flips, 8*n-1-(i+shift))
		}
	}
	return flips
}

// TestDiskRotTheCRCMisses: media rot whose pattern is a multiple of the
// generator polynomial, struck into the elided tail, passes the block's
// check and reads back damaged, as it would under a real CRC-32. Two
// patterns: P(x) itself, fifteen flips inside one row, and the lightest
// multiple, x^1000·(1 + x^41678 + x^91639), three flips across the tail.
// CRC-32 catches every three-flip pattern that spans fewer bits.
func TestDiskRotTheCRCMisses(t *testing.T) {
	// An odd size prime to 131, so some CorruptNth index reaches every
	// bit of the block.
	const size = 16*diskRowBytes + 3
	const top = 8*size - 1 // bit t holds the coefficient of x^(top−t)
	carried := make([]byte, 1500)
	for i := range carried {
		carried[i] = byte(i*3 + 1)
	}
	for _, tc := range []struct {
		name  string
		flips []int
		rows  int // the rows the restore feed carries, through the last flip
	}{
		{"P(x) in row 3", polyFlips(size, 99095), 4},
		{"three flips in rows 4, 10 and 15", []int{top - 1000 - 91639, top - 1000 - 41678, top - 1000}, 16},
	} {
		k := sim.NewKernel()
		d := NewDisk(k, "t")
		d.store("blk", carried, size)
		dense := make([]byte, size)
		copy(dense, carried)
		clean := crc32.ChecksumIEEE(dense)
		for _, pos := range tc.flips {
			n := 0
			for int(uint64(n)*131%size)*8+n%8 != pos {
				n++
			}
			d.CorruptNth(n)
			dense[pos>>3] ^= 1 << (pos & 7)
		}
		if crc32.ChecksumIEEE(dense) != clean {
			t.Fatalf("%s: the pattern changed the CRC-32", tc.name)
		}
		if !d.Verify("blk") {
			t.Fatalf("%s: rot the CRC cannot see failed verification", tc.name)
		}
		got, err := diskRead(k, d, "blk")
		if err != nil || !bytes.Equal(got, dense) {
			t.Fatalf("%s: Read: %v, or not the damaged block", tc.name, err)
		}
		b := d.blocks["blk"]
		if c := b.carried(); c != tc.rows*diskRowBytes || !bytes.Equal(b.bytes(0, c), dense[:c]) {
			t.Fatalf("%s: carried %d bytes, want the %d through the last damaged row", tc.name, c, tc.rows*diskRowBytes)
		}
		// One more flip breaks the pattern, and the check catches it.
		d.CorruptNth(0)
		if d.Verify("blk") {
			t.Fatalf("%s: rot the CRC can see passed verification", tc.name)
		}
	}
}
