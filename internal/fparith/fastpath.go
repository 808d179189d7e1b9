package fparith

import "math"

// The host path. The T Series' adder and multiplier follow IEEE 754
// round-to-nearest-even in both precisions and depart from it in one
// place: no gradual underflow. So when both operands are normal, the
// operation can run on the host's own IEEE unit, and its result is kept
// whenever it is finite with a biased exponent of at least 2. That
// result is the T Series' exact bits:
//
//   - Rounding is monotone, so a host result of at least 2·minNormal
//     comes from an exact result above minNormal. There both sides round
//     the same full significand, and the host's denormal grid never
//     enters.
//   - A finite host result is not an overflow on either side: both give
//     ±Inf exactly when the rounded significand's exponent passes the
//     largest normal one.
//
// A result with biased exponent 0 or 1 lies in the band where the two
// regimes can disagree. The host rounds a tiny exact result on the
// denormal grid and may reach ±minNormal, while the T Series rounds the
// full significand first and flushes what stays below minNormal to a
// signed zero. Those results, every overflow, and every zero, denormal,
// Inf or NaN operand take the generic bit-level add/mul, which is also
// the reference the differential tests hold the host path to.
//
// The rule is stated once, in the Host* primitives below. Each is small
// enough to inline into a caller's loop, and a true ok also means the
// result is neither Inf nor NaN, so it raises no status flag. The public
// Add/Sub/Mul entry points and the vector unit's row loops are built on
// them, and fall back to the generic code when ok is false.
//
// The operands are tested before the host operation, so a denormal
// operand never reaches the host's unit (on x86 that costs a microcode
// assist). Each host operation is wrapped in an explicit float64(...) or
// float32(...) conversion: the Go spec lets a port fuse a multiply into
// a later add (one rounding instead of two), and the conversion forces
// the rounding that the T Series' separate multiplier and adder each
// apply.

// HostAdd64 returns the bits of a+b from the host's IEEE unit, and ok
// when they are the T Series' result: both operands normal and the sum
// finite with a biased exponent of at least 2.
func HostAdd64(a, b uint64) (u uint64, ok bool) {
	if isNorm64(a) && isNorm64(b) {
		u = math.Float64bits(float64(math.Float64frombits(a) + math.Float64frombits(b)))
		ok = kept64(u)
	}
	return
}

// HostSub64 is HostAdd64 for a-b.
func HostSub64(a, b uint64) (u uint64, ok bool) {
	if isNorm64(a) && isNorm64(b) {
		u = math.Float64bits(float64(math.Float64frombits(a) - math.Float64frombits(b)))
		ok = kept64(u)
	}
	return
}

// HostMul64 is HostAdd64 for a*b.
func HostMul64(a, b uint64) (u uint64, ok bool) {
	if isNorm64(a) && isNorm64(b) {
		u = math.Float64bits(float64(math.Float64frombits(a) * math.Float64frombits(b)))
		ok = kept64(u)
	}
	return
}

// HostAdd32 is the 32-bit counterpart of HostAdd64.
func HostAdd32(a, b uint32) (u uint32, ok bool) {
	if isNorm32(a) && isNorm32(b) {
		u = math.Float32bits(float32(math.Float32frombits(a) + math.Float32frombits(b)))
		ok = kept32(u)
	}
	return
}

// HostSub32 is the 32-bit counterpart of HostSub64.
func HostSub32(a, b uint32) (u uint32, ok bool) {
	if isNorm32(a) && isNorm32(b) {
		u = math.Float32bits(float32(math.Float32frombits(a) - math.Float32frombits(b)))
		ok = kept32(u)
	}
	return
}

// HostMul32 is the 32-bit counterpart of HostMul64.
func HostMul32(a, b uint32) (u uint32, ok bool) {
	if isNorm32(a) && isNorm32(b) {
		u = math.Float32bits(float32(math.Float32frombits(a) * math.Float32frombits(b)))
		ok = kept32(u)
	}
	return
}

// The exponent tests below shift the sign out first: x<<1 holds the
// biased exponent in its top bits, above the fraction. Subtracting the
// lowest accepted exponent wraps a smaller one around to a huge value,
// so one unsigned compare checks both ends of the range. That is two
// instructions and a branch on amd64, which matters: the tests run
// several times per element in the vector unit's row loops.

// isNorm64 reports whether x has a biased exponent in [1, 0x7FE]: a
// normal number.
func isNorm64(x uint64) bool { return x<<1-1<<53 < 0x7FE<<53 }

func isNorm32(x uint32) bool { return x<<1-1<<24 < 0xFE<<24 }

// kept64 reports whether a host result of two normal operands is the
// T Series' result: biased exponent in [2, 0x7FE].
func kept64(u uint64) bool { return u<<1-2<<53 < 0x7FD<<53 }

func kept32(u uint32) bool { return u<<1-2<<24 < 0xFD<<24 }
