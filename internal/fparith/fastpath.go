package fparith

import "math"

// The host path. The T Series' adder and multiplier follow IEEE 754
// round-to-nearest-even in both precisions and depart from it in one
// place: no gradual underflow. So when both operands are normal, the
// public Add/Sub/Mul entry points run the operation on the host's own
// IEEE unit and keep its result whenever the result's biased exponent is
// at least 2 (±Inf included). That result is the T Series' exact bits:
//
//   - Rounding is monotone, so a host result of at least 2·minNormal
//     comes from an exact result above minNormal. There both sides round
//     the same full significand, and the host's denormal grid never
//     enters.
//   - Overflow rounds alike: both give ±Inf exactly when the rounded
//     significand's exponent passes the largest normal one.
//
// A result with biased exponent 0 or 1 lies in the band where the two
// regimes can disagree. The host rounds a tiny exact result on the
// denormal grid and may reach ±minNormal, while the T Series rounds the
// full significand first and flushes what stays below minNormal to a
// signed zero. Those results, and every zero, denormal, Inf or NaN
// operand, take the generic bit-level add/mul, which is also the
// reference the differential tests hold the host path to.
//
// Each host operation is wrapped in an explicit float64(...) or
// float32(...) conversion. The Go spec lets a port fuse a multiply into
// a later add (one rounding instead of two); the conversion forces the
// rounding that the T Series' separate multiplier and adder each apply.

// isNorm64 reports whether x has a biased exponent in [1, 0x7FE]: a
// normal number.
func isNorm64(x uint64) bool {
	e := x >> 52 & 0x7FF
	return e-1 < 0x7FE
}

func isNorm32(x uint32) bool {
	e := x >> 23 & 0xFF
	return e-1 < 0xFE
}

// host64 returns the bits of a host result of two normal operands and
// whether they are the T Series' result: biased exponent at least 2.
func host64(h float64) (F64, bool) {
	u := math.Float64bits(h)
	return F64(u), u>>52&0x7FF >= 2
}

func host32(h float32) (F32, bool) {
	u := math.Float32bits(h)
	return F32(u), u>>23&0xFF >= 2
}
