// Package fparith implements the T Series floating-point arithmetic at the
// bit level.
//
// The paper specifies the (then-proposed) IEEE 754 formats — a 53-bit
// significand and 11-bit exponent in 64-bit mode — but notes that "gradual
// underflow is not supported": results that would be denormal flush to
// zero, and denormal inputs are treated as zero. Everything else follows
// IEEE 754 with round-to-nearest-even.
//
// The package operates on raw bit patterns (uint32 / uint64); helpers
// convert to and from Go's native types for test oracles and workload
// setup. Add, Sub and Mul of two normal operands run on the host's IEEE
// unit, and the host's result is kept when it is finite with a biased
// exponent of at least 2. That is exact: the two regimes round the same
// way above the underflow threshold, and a host result of at least
// 2·minNormal can only come from an exact result above it. Every other
// case takes the generic bit-level code below (see fastpath.go, whose
// Host* primitives state the rule for callers that inline it). So a result depends on the host only through Go's
// IEEE-754 float32/float64 arithmetic, the same bits on every port once
// an explicit conversion rules out a fused multiply-add.
package fparith

import "math/bits"

// format describes a binary interchange format generically so one
// implementation serves both 32- and 64-bit modes.
type format struct {
	expBits  uint
	fracBits uint
}

var (
	fmt32 = format{expBits: 8, fracBits: 23}
	fmt64 = format{expBits: 11, fracBits: 52}
)

func (f format) bias() int         { return (1 << (f.expBits - 1)) - 1 }
func (f format) expMax() int       { return (1 << f.expBits) - 1 } // all-ones biased exponent
func (f format) signMask() uint64  { return 1 << (f.expBits + f.fracBits) }
func (f format) fracMask() uint64  { return (1 << f.fracBits) - 1 }
func (f format) hiddenBit() uint64 { return 1 << f.fracBits }
func (f format) quietNaN() uint64 {
	return uint64(f.expMax())<<f.fracBits | 1<<(f.fracBits-1)
}
func (f format) inf(sign uint64) uint64 {
	return sign<<(f.expBits+f.fracBits) | uint64(f.expMax())<<f.fracBits
}

// class of an unpacked operand.
type class int

const (
	clZero class = iota
	clNormal
	clInf
	clNaN
)

// unpacked is a decoded operand: value = (-1)^sign * sig * 2^(exp-fracBits)
// for normal numbers, where sig includes the hidden bit.
type unpacked struct {
	sign uint64 // 0 or 1
	exp  int    // unbiased exponent of the hidden bit
	sig  uint64 // fracBits+1 significant bits (hidden bit set) when normal
	cls  class
}

func unpack(f format, x uint64) unpacked {
	sign := (x >> (f.expBits + f.fracBits)) & 1
	biased := int((x >> f.fracBits) & uint64((1<<f.expBits)-1))
	frac := x & f.fracMask()
	switch {
	case biased == f.expMax():
		if frac != 0 {
			return unpacked{sign: sign, cls: clNaN}
		}
		return unpacked{sign: sign, cls: clInf}
	case biased == 0:
		// Zero, or a denormal which the T Series flushes to zero.
		return unpacked{sign: sign, cls: clZero}
	default:
		return unpacked{
			sign: sign,
			exp:  biased - f.bias(),
			sig:  frac | f.hiddenBit(),
			cls:  clNormal,
		}
	}
}

// roundPack assembles a result from sign, unbiased exponent and a
// significand carrying three extra guard/round/sticky bits at the bottom
// (so sig is nominally fracBits+4 bits with the leading bit at position
// fracBits+3). It applies round-to-nearest-even, then handles overflow
// (→ ±Inf) and underflow (→ signed zero; no gradual underflow).
func roundPack(f format, sign uint64, exp int, sig uint64) uint64 {
	if sig == 0 {
		return sign << (f.expBits + f.fracBits)
	}
	// Renormalise in case callers left the leading bit off-position.
	top := 63 - bits.LeadingZeros64(sig)
	want := int(f.fracBits) + 3
	if top > want {
		shift := uint(top - want)
		sticky := uint64(0)
		if sig&((1<<shift)-1) != 0 {
			sticky = 1
		}
		sig = sig>>shift | sticky
		exp += top - want
	} else if top < want {
		sig <<= uint(want - top)
		exp -= want - top
	}

	lsb := (sig >> 3) & 1
	guard := (sig >> 2) & 1
	roundBit := (sig >> 1) & 1
	sticky := sig & 1
	sig >>= 3
	if guard == 1 && (roundBit == 1 || sticky == 1 || lsb == 1) {
		sig++
		if sig == f.hiddenBit()<<1 {
			sig >>= 1
			exp++
		}
	}
	biased := exp + f.bias()
	if biased >= f.expMax() {
		return f.inf(sign)
	}
	if biased <= 0 {
		// Would be denormal: flush to zero, keeping the sign.
		return sign << (f.expBits + f.fracBits)
	}
	return sign<<(f.expBits+f.fracBits) | uint64(biased)<<f.fracBits | (sig &^ f.hiddenBit())
}

// add computes a+b (or a-b when sub) in format f.
func add(f format, a, b uint64, sub bool) uint64 {
	ua, ub := unpack(f, a), unpack(f, b)
	if sub {
		ub.sign ^= 1
	}
	switch {
	case ua.cls == clNaN || ub.cls == clNaN:
		return f.quietNaN()
	case ua.cls == clInf && ub.cls == clInf:
		if ua.sign != ub.sign {
			return f.quietNaN() // ∞ − ∞
		}
		return f.inf(ua.sign)
	case ua.cls == clInf:
		return f.inf(ua.sign)
	case ub.cls == clInf:
		return f.inf(ub.sign)
	case ua.cls == clZero && ub.cls == clZero:
		// IEEE: equal-signed zeros keep the sign; opposite give +0 (RNE).
		if ua.sign == ub.sign {
			return ua.sign << (f.expBits + f.fracBits)
		}
		return 0
	case ua.cls == clZero:
		return pack(f, ub)
	case ub.cls == clZero:
		return pack(f, ua)
	}

	// Order so |a| >= |b|.
	if ua.exp < ub.exp || (ua.exp == ub.exp && ua.sig < ub.sig) {
		ua, ub = ub, ua
	}
	// Give both operands 3 GRS bits.
	sigA := ua.sig << 3
	sigB := ub.sig << 3
	shift := uint(ua.exp - ub.exp)
	if shift > 0 {
		if shift >= 64 || shift > f.fracBits+4 {
			sigB = 1 // pure sticky
		} else {
			sticky := uint64(0)
			if sigB&((1<<shift)-1) != 0 {
				sticky = 1
			}
			sigB = sigB>>shift | sticky
		}
	}
	exp := ua.exp
	var sum uint64
	if ua.sign == ub.sign {
		sum = sigA + sigB
	} else {
		sum = sigA - sigB
		if sum == 0 {
			return 0 // exact cancellation → +0 under RNE
		}
	}
	return roundPack(f, ua.sign, exp, sum)
}

func pack(f format, u unpacked) uint64 {
	switch u.cls {
	case clZero:
		return u.sign << (f.expBits + f.fracBits)
	case clInf:
		return f.inf(u.sign)
	case clNaN:
		return f.quietNaN()
	}
	return u.sign<<(f.expBits+f.fracBits) | uint64(u.exp+f.bias())<<f.fracBits | (u.sig &^ f.hiddenBit())
}

// mul computes a*b in format f.
func mul(f format, a, b uint64) uint64 {
	ua, ub := unpack(f, a), unpack(f, b)
	sign := ua.sign ^ ub.sign
	switch {
	case ua.cls == clNaN || ub.cls == clNaN:
		return f.quietNaN()
	case ua.cls == clInf || ub.cls == clInf:
		if ua.cls == clZero || ub.cls == clZero {
			return f.quietNaN() // ∞ × 0
		}
		return f.inf(sign)
	case ua.cls == clZero || ub.cls == clZero:
		return sign << (f.expBits + f.fracBits)
	}

	hi, lo := bits.Mul64(ua.sig, ub.sig)
	// Product of two (fracBits+1)-bit significands has 2*fracBits+1 or
	// 2*fracBits+2 bits. Reduce to fracBits+4 (leading bit + frac + GRS).
	var top int
	if hi != 0 {
		top = 127 - bits.LeadingZeros64(hi)
	} else {
		top = 63 - bits.LeadingZeros64(lo)
	}
	exp := ua.exp + ub.exp + (top - 2*int(f.fracBits))
	keep := int(f.fracBits) + 4 // bits to retain including GRS
	shift := uint(top + 1 - keep)
	var sig, sticky uint64
	if shift == 0 {
		sig = lo
	} else if shift < 64 {
		if lo&((1<<shift)-1) != 0 {
			sticky = 1
		}
		sig = lo>>shift | hi<<(64-shift)
	} else {
		if lo != 0 || (shift > 64 && hi&((1<<(shift-64))-1) != 0) {
			sticky = 1
		}
		sig = hi >> (shift - 64)
	}
	return roundPack(f, sign, exp, sig|sticky)
}

// div computes a/b in format f by long division of significands. The T
// Series arithmetic unit has no divide pipeline — division is a software
// operation built from the adder and multiplier — but the workloads need
// a correctly rounded quotient, which this provides.
func div(f format, a, b uint64) uint64 {
	ua, ub := unpack(f, a), unpack(f, b)
	sign := ua.sign ^ ub.sign
	switch {
	case ua.cls == clNaN || ub.cls == clNaN:
		return f.quietNaN()
	case ua.cls == clInf && ub.cls == clInf:
		return f.quietNaN()
	case ua.cls == clInf:
		return f.inf(sign)
	case ub.cls == clInf:
		return sign << (f.expBits + f.fracBits)
	case ua.cls == clZero && ub.cls == clZero:
		return f.quietNaN()
	case ub.cls == clZero:
		return f.inf(sign) // finite / 0
	case ua.cls == clZero:
		return sign << (f.expBits + f.fracBits)
	}

	// Long-divide (sigA << (fracBits+4)) by sigB. Since sigA/sigB lies in
	// (1/2, 2), the quotient has fracBits+4 or fracBits+5 significant
	// bits; roundPack renormalises. A nonzero remainder folds into the
	// sticky bit. The result value is quo·2^(ea−eb−fracBits−4), and
	// roundPack treats sig as sig·2^(exp−fracBits−3), so exp = ea−eb−1.
	shift := f.fracBits + 4
	hi := ua.sig >> (64 - shift)
	lo := ua.sig << shift
	quo, rem := bits.Div64(hi, lo, ub.sig)
	sticky := uint64(0)
	if rem != 0 {
		sticky = 1
	}
	return roundPack(f, sign, ua.exp-ub.exp-1, quo|sticky)
}
