package link

import "hash/crc32"

// Frame integrity. Each DMA frame carries a CRC-32 (IEEE) computed by
// the sender, and the receiver nacks a frame whose CRC no longer
// matches. The simulator runs neither computation. The wire damages an
// n-byte frame f by inverting a set of bit positions, the error pattern
// e, and CRC-32 is affine over GF(2):
//
//	crc(f ⊕ e) = crc(f) ⊕ crc(e) ⊕ crc(0ⁿ)
//
// So the receiver's check fails exactly when the syndrome
// crc(e) ⊕ crc(0ⁿ) is nonzero. The syndrome is the plain polynomial
// remainder of e, with no initial register and no final XOR; it depends
// on n and the flipped positions alone, and no payload byte is hashed
// or copied to decide a nack.

// syndrome returns the CRC-32 remainder of an n-byte error pattern with
// the given ascending bit positions set (position 8b+j is bit 1<<j of
// byte b). The flips in byte b form one byte value v; fed into a zero
// register it leaves crc32.IEEETable[v], which the n−1−b zero bytes
// after it multiply by x^(8(n−1−b)) mod P. By linearity the syndrome is
// the XOR of those terms.
func syndrome(n int, flips []int) uint32 {
	var s uint32
	for i := 0; i < len(flips); {
		b := flips[i] >> 3
		var v byte
		for ; i < len(flips) && flips[i]>>3 == b; i++ {
			v ^= 1 << uint(flips[i]&7)
		}
		s ^= multmodp(xpow8n(n-1-b), crc32.IEEETable[v])
	}
	return s
}

// caught reports whether the receiver's CRC rejects an n-byte frame
// damaged at the given bit positions. x has multiplicative order
// 2³²−1 modulo P, and P does not divide x. So one flipped bit (x^a)
// or two distinct ones (x^b·(x^(a−b)+1), with 0 < a−b < 2³²−1) in a
// frame shorter than 2³²−1 bits always leave a nonzero syndrome, and
// only three or more flips, or a pattern that repeats a position, need
// the syndrome computed.
func caught(n int, flips []int) bool {
	if n < 1<<29 && (len(flips) == 1 || len(flips) == 2 && flips[0] != flips[1]) {
		return true
	}
	return syndrome(n, flips) != 0
}

// damage returns the wire image of a frame, data followed by zero
// bytes up to wire, with the given bit positions inverted: what a
// receiver holds after an error the CRC did not catch. It is always a
// fresh dense copy.
func damage(data []byte, wire int, flips []int) []byte {
	bad := make([]byte, wire)
	copy(bad, data)
	for _, pos := range flips {
		bad[pos>>3] ^= 1 << uint(pos&7)
	}
	return bad
}

// CRCUpdateZeros returns the CRC-32 (IEEE) of the content whose CRC is
// crc followed by n zero bytes: crc32.Update(crc, crc32.IEEETable,
// make([]byte, n)) without hashing the zeros. The zeros multiply the
// (uninverted) CRC register by x^(8n) mod P; a run of whole zero rows
// takes that factor from zeroRowFactor.
func CRCUpdateZeros(crc uint32, n int) uint32 {
	if n == 0 {
		return crc
	}
	var f uint32
	if k := n / zeroRowBytes; n%zeroRowBytes == 0 && k < len(zeroRowFactor) {
		f = zeroRowFactor[k]
	} else {
		f = xpow8n(n)
	}
	return ^multmodp(f, ^crc)
}

// The zero runs a checkpoint disk folds into a block's CRC are whole
// 1 KB memory rows, at most a 64 KB snapshot chunk's worth, except a
// block's partial last row. zeroRowFactor[k] is x^(8·k·zeroRowBytes)
// mod P for k ≤ 64, so such a fold costs one lookup and one multmodp
// instead of xpow8n's multmodp per set bit of n.
const zeroRowBytes = 1024

var zeroRowFactor = func() (t [65]uint32) {
	for k := range t {
		t[k] = xpow8n(k * zeroRowBytes)
	}
	return t
}()

// multmodp returns a(x)·b(x) mod P(x) in the reflected bit order of the
// IEEE table, where the top bit holds the x⁰ coefficient.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) mod P. The multiplicative order of x divides
// 2³²−1, so x^(2^32) = x and the table wraps after 32 entries.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x¹
	for k := range t {
		t[k] = p
		p = multmodp(p, p)
	}
	return t
}()

// xpow8n returns x^(8n) mod P: the factor by which n zero bytes
// advance a CRC register.
func xpow8n(n int) uint32 {
	p := uint32(1) << 31 // x⁰
	for k := 3; n != 0; k++ {
		if n&1 != 0 {
			p = multmodp(x2n[k&31], p)
		}
		n >>= 1
	}
	return p
}
