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
		want := crc32.ChecksumIEEE(damage(frame, flips)) ^ crc32.ChecksumIEEE(frame)
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

func TestUndetectedDeliveryIsADamagedCopy(t *testing.T) {
	for _, staged := range []bool{false, true} {
		frame := make([]byte, 64)
		for i := range frame {
			frame[i] = byte(3 * i)
		}
		orig := append([]byte(nil), frame...)
		flips := polyFlips(len(frame), 101)
		bad := append([]byte(nil), frame...)
		for _, pos := range flips {
			bad[pos>>3] ^= 1 << uint(pos&7)
		}
		if syndrome(len(frame), flips) != 0 || crc32.ChecksumIEEE(bad) != crc32.ChecksumIEEE(frame) {
			t.Fatal("a multiple of the generator polynomial changed the CRC")
		}
		got, a := transferOne(t, staged, &corruptOnce{flips: flips}, frame)
		if !bytes.Equal(got, bad) {
			t.Fatalf("staged=%v: receiver did not get the damaged bytes", staged)
		}
		if a.Corrupted != 1 || a.Undetected != 1 || a.Retransmits != 0 {
			t.Fatalf("staged=%v: corrupted=%d undetected=%d retransmits=%d, want 1/1/0",
				staged, a.Corrupted, a.Undetected, a.Retransmits)
		}
		if !bytes.Equal(frame, orig) {
			t.Fatalf("staged=%v: the sender's buffer was modified", staged)
		}
	}
}
