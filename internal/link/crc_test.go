package link

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
)

// TestSyndromeMatchesCRC checks the syndrome rule against the CRC it
// stands for: for random frames and error patterns, crc(f) ⊕ syndrome
// must equal the CRC of the materialized damaged copy.
func TestSyndromeMatchesCRC(t *testing.T) {
	check := func(frame []byte, flips []int) {
		t.Helper()
		want := crc32.ChecksumIEEE(damage(frame, len(frame), flips)) ^ crc32.ChecksumIEEE(frame)
		if got := syndrome(len(frame), flips); got != want {
			t.Fatalf("n=%d flips=%v: syndrome %#x, CRC difference %#x", len(frame), flips, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70000)
		frame := make([]byte, n)
		rng.Read(frame)
		// Every third pattern crowds its flips into one byte.
		lo, span := 0, 8*n
		if trial%3 == 0 {
			lo, span = 8*rng.Intn(n), 8
		}
		set := map[int]bool{}
		for k := 1 + rng.Intn(5); len(set) < k; {
			set[lo+rng.Intn(span)] = true
		}
		flips := make([]int, 0, len(set))
		for pos := range set {
			flips = append(flips, pos)
		}
		sort.Ints(flips)
		check(frame, flips)
	}
	frame := make([]byte, 70000)
	check(frame, nil)
	check(frame, []int{0})
	check(frame, []int{8*len(frame) - 1})
	check(frame, []int{0, 1, 8*len(frame) - 1})
}

// polyFlips returns the error pattern P(x)·x^shift in an n-byte frame,
// where P is the CRC-32 generator polynomial: bit t of the frame's bit
// stream (bit t&7 of byte t>>3, each byte least significant bit first)
// is the coefficient of x^(8n−1−t). Every multiple of P leaves the CRC
// unchanged.
func polyFlips(n, shift int) []int {
	const p = 1<<32 | 0x04C11DB7 // x³² + x²⁶ + … + x + 1
	var flips []int
	for i := 32; i >= 0; i-- {
		if p>>uint(i)&1 != 0 {
			flips = append(flips, 8*n-1-(i+shift))
		}
	}
	return flips
}

// corruptOnce returns flips for the first attempt and nothing after.
type corruptOnce struct {
	flips []int
	calls int
}

func (c *corruptOnce) Corrupt(sublink string, n int) []int {
	c.calls++
	if c.calls > 1 {
		return nil
	}
	return c.flips
}

// TestUndetectedDeliveryIsADamagedCopy sends a frame whose damage is
// a multiple of the generator polynomial, so the CRC misses it. The
// receiver must get a dense damaged copy of the wire image and the
// sender's bytes must stay as they were. The second frame carries only
// its first 24 bytes of a 64-byte wire image, and the damage falls
// inside the zero tail.
func TestUndetectedDeliveryIsADamagedCopy(t *testing.T) {
	for _, tc := range []struct {
		carried, wire, shift int
	}{
		{64, 64, 101},
		{24, 64, 40},
	} {
		for _, staged := range []bool{false, true} {
			frame := make([]byte, tc.carried)
			for i := range frame {
				frame[i] = byte(3*i + 1)
			}
			orig := append([]byte(nil), frame...)
			flips := polyFlips(tc.wire, tc.shift)
			dense := make([]byte, tc.wire)
			copy(dense, frame)
			bad := append([]byte(nil), dense...)
			for _, pos := range flips {
				bad[pos>>3] ^= 1 << uint(pos&7)
			}
			if tc.carried < tc.wire && flips[0]>>3 < tc.carried {
				t.Fatalf("flips %v reach the carried bytes", flips)
			}
			if syndrome(tc.wire, flips) != 0 || crc32.ChecksumIEEE(bad) != crc32.ChecksumIEEE(dense) {
				t.Fatal("a multiple of the generator polynomial changed the CRC")
			}
			got, a := transferOne(t, staged, &corruptOnce{flips: flips}, frame, tc.wire)
			if !bytes.Equal(got, bad) {
				t.Fatalf("carried=%d staged=%v: receiver got %d bytes, not the %d-byte damaged wire image",
					tc.carried, staged, len(got), tc.wire)
			}
			if a.Corrupted != 1 || a.Undetected != 1 || a.Retransmits != 0 || a.BytesSent != int64(tc.wire) {
				t.Fatalf("carried=%d staged=%v: corrupted=%d undetected=%d retransmits=%d bytes=%d, want 1/1/0/%d",
					tc.carried, staged, a.Corrupted, a.Undetected, a.Retransmits, a.BytesSent, tc.wire)
			}
			if !bytes.Equal(frame, orig) {
				t.Fatalf("carried=%d staged=%v: the sender's buffer was modified", tc.carried, staged)
			}
		}
	}
}

// xpow returns x^e mod P from the x^(2^k) table.
func xpow(e uint64) uint32 {
	p := uint32(1) << 31 // x⁰
	for k := 0; e != 0; k, e = k+1, e>>1 {
		if e&1 != 0 {
			p = multmodp(x2n[k], p)
		}
	}
	return p
}

// TestXHasFullOrder pins the fact behind caught's fast path: x has
// multiplicative order exactly 2³²−1 modulo the CRC-32 polynomial. Its
// order divides 2³²−1 = 3·5·17·257·65537, and x^((2³²−1)/q) ≠ 1 for
// each prime factor q rules out every proper divisor.
func TestXHasFullOrder(t *testing.T) {
	const order = 1<<32 - 1
	one := uint32(1) << 31
	if got := xpow(order); got != one {
		t.Fatalf("x^(2^32-1) = %#x, want 1 (%#x)", got, one)
	}
	for _, q := range []uint64{3, 5, 17, 257, 65537} {
		if order%q != 0 {
			t.Fatalf("%d does not divide 2^32-1", q)
		}
		if xpow(order/q) == one {
			t.Fatalf("x^((2^32-1)/%d) = 1: the order of x is not 2^32-1", q)
		}
	}
}

// TestCaughtMatchesSyndrome checks caught's one- and two-flip fast path
// against the syndrome it skips, and that longer patterns still go
// through the syndrome: an undetectable pattern is not caught.
func TestCaughtMatchesSyndrome(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(70000)
		a := rng.Intn(8 * n)
		flips := []int{a}
		if trial%2 == 1 && n > 1 {
			b := rng.Intn(8*n - 1)
			if b >= a {
				b++
			}
			flips = []int{min(a, b), max(a, b)}
		}
		if got, want := caught(n, flips), syndrome(n, flips) != 0; got != want {
			t.Fatalf("n=%d flips=%v: caught %v, syndrome says %v", n, flips, got, want)
		}
	}
	if caught(64, polyFlips(64, 3)) {
		t.Fatal("a multiple of the generator polynomial was caught")
	}
	if caught(64, []int{9, 9}) {
		t.Fatal("a bit flipped twice was caught")
	}
}

// TestCRCUpdateZeroRows checks every precomputed whole-row factor: a
// fold of k 1 KB zero rows, k from 0 to 64, against hashing the zeros.
func TestCRCUpdateZeroRows(t *testing.T) {
	zeros := make([]byte, (len(zeroRowFactor)-1)*zeroRowBytes)
	c := crc32.ChecksumIEEE([]byte("row head"))
	for k := range zeroRowFactor {
		n := k * zeroRowBytes
		want := crc32.Update(c, crc32.IEEETable, zeros[:n])
		if got := CRCUpdateZeros(c, n); got != want {
			t.Errorf("%d zero rows: %#x, want %#x", k, got, want)
		}
	}
}

// TestCRCUpdateZeros checks the zero-run fold against hashing the
// zeros.
func TestCRCUpdateZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		head := make([]byte, rng.Intn(3000))
		rng.Read(head)
		n := rng.Intn(70000)
		if trial%4 == 0 {
			n = 1024 * rng.Intn(65)
		}
		c := crc32.ChecksumIEEE(head)
		want := crc32.Update(c, crc32.IEEETable, make([]byte, n))
		if got := CRCUpdateZeros(c, n); got != want {
			t.Fatalf("head %d bytes, %d zeros: %#x, want %#x", len(head), n, got, want)
		}
	}
}
