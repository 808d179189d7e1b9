package fparith

import "math"

// F64 is a 64-bit T Series floating-point value as a raw bit pattern:
// 1 sign bit, 11 exponent bits, 52 fraction bits (53-bit significand —
// "approximately 15 decimal digits of precision", dynamic range ~10^±308).
type F64 uint64

// F32 is a 32-bit T Series floating-point value as a raw bit pattern.
type F32 uint32

// 64-bit operations.

// Add64 returns a + b with round-to-nearest-even and flush-to-zero.
func Add64(a, b F64) F64 {
	if h, ok := HostAdd64(uint64(a), uint64(b)); ok {
		return F64(h)
	}
	return F64(add(fmt64, uint64(a), uint64(b), false))
}

// Sub64 returns a - b.
func Sub64(a, b F64) F64 {
	if h, ok := HostSub64(uint64(a), uint64(b)); ok {
		return F64(h)
	}
	return F64(add(fmt64, uint64(a), uint64(b), true))
}

// Mul64 returns a * b.
func Mul64(a, b F64) F64 {
	if h, ok := HostMul64(uint64(a), uint64(b)); ok {
		return F64(h)
	}
	return F64(mul(fmt64, uint64(a), uint64(b)))
}

// Div64 returns a / b (a software operation on the real machine).
func Div64(a, b F64) F64 { return F64(div(fmt64, uint64(a), uint64(b))) }

// Neg64 returns -a (sign flip; NaN keeps its payload).
func Neg64(a F64) F64 { return a ^ F64(fmt64.signMask()) }

// Abs64 returns |a|.
func Abs64(a F64) F64 { return a &^ F64(fmt64.signMask()) }

// 32-bit operations.

// Add32 returns a + b.
func Add32(a, b F32) F32 {
	if h, ok := HostAdd32(uint32(a), uint32(b)); ok {
		return F32(h)
	}
	return F32(add(fmt32, uint64(a), uint64(b), false))
}

// Sub32 returns a - b.
func Sub32(a, b F32) F32 {
	if h, ok := HostSub32(uint32(a), uint32(b)); ok {
		return F32(h)
	}
	return F32(add(fmt32, uint64(a), uint64(b), true))
}

// Mul32 returns a * b.
func Mul32(a, b F32) F32 {
	if h, ok := HostMul32(uint32(a), uint32(b)); ok {
		return F32(h)
	}
	return F32(mul(fmt32, uint64(a), uint64(b)))
}

// Div32 returns a / b.
func Div32(a, b F32) F32 { return F32(div(fmt32, uint64(a), uint64(b))) }

// Neg32 returns -a.
func Neg32(a F32) F32 { return a ^ F32(fmt32.signMask()) }

// Abs32 returns |a|.
func Abs32(a F32) F32 { return a &^ F32(fmt32.signMask()) }

// Classification.

// IsNaN64 reports whether a is a NaN.
func IsNaN64(a F64) bool { return unpack(fmt64, uint64(a)).cls == clNaN }

// IsInf64 reports whether a is ±Inf.
func IsInf64(a F64) bool { return unpack(fmt64, uint64(a)).cls == clInf }

// IsZero64 reports whether a is ±0 (or a flushed denormal).
func IsZero64(a F64) bool { return unpack(fmt64, uint64(a)).cls == clZero }

// IsNaN32 reports whether a is a NaN.
func IsNaN32(a F32) bool { return unpack(fmt32, uint64(a)).cls == clNaN }

// IsInf32 reports whether a is ±Inf.
func IsInf32(a F32) bool { return unpack(fmt32, uint64(a)).cls == clInf }

// IsZero32 reports whether a is ±0.
func IsZero32(a F32) bool { return unpack(fmt32, uint64(a)).cls == clZero }

// cmp returns -1, 0, +1 for a<b, a==b, a>b, or 2 if unordered (NaN).
func cmp(f format, a, b uint64) int {
	ua, ub := unpack(f, a), unpack(f, b)
	if ua.cls == clNaN || ub.cls == clNaN {
		return 2
	}
	return cmpKeys(orderKey(f, ua), orderKey(f, ub))
}

// orderKey maps a non-NaN unpacked value to an int64 that orders
// identically to the real-number order.
func orderKey(f format, u unpacked) int64 {
	if u.cls == clZero {
		return 0
	}
	mag := int64(u.exp+f.bias())<<f.fracBits | int64(u.sig&^f.hiddenBit())
	if u.cls == clInf {
		mag = int64(f.expMax()) << f.fracBits
	}
	if u.sign == 1 {
		return -mag
	}
	return mag
}

// Cmp64 compares a and b: -1, 0, +1, or 2 when unordered (either is NaN).
// Two operands that are both normal or infinite order like their
// sign-magnitude bit patterns, so they are compared without unpacking.
// Zeros, denormals (flushed to zero) and NaNs take the generic path.
func Cmp64(a, b F64) int {
	const sign, minNormal, inf = 1 << 63, 1 << 52, 0x7ff << 52
	ma, mb := uint64(a)&^sign, uint64(b)&^sign
	// A magnitude in [minNormal, inf] is normal or infinite.
	if ma-minNormal <= inf-minNormal && mb-minNormal <= inf-minNormal {
		return cmpKeys(signedKey(ma, uint64(a)&sign != 0), signedKey(mb, uint64(b)&sign != 0))
	}
	return cmp(fmt64, uint64(a), uint64(b))
}

// Cmp32 compares a and b: -1, 0, +1, or 2 when unordered. Like Cmp64 it
// orders two normal or infinite operands by their bit patterns.
func Cmp32(a, b F32) int {
	const sign, minNormal, inf = 1 << 31, 1 << 23, 0xff << 23
	ma, mb := uint32(a)&^sign, uint32(b)&^sign
	if ma-minNormal <= inf-minNormal && mb-minNormal <= inf-minNormal {
		return cmpKeys(signedKey(uint64(ma), uint32(a)&sign != 0), signedKey(uint64(mb), uint32(b)&sign != 0))
	}
	return cmp(fmt32, uint64(a), uint64(b))
}

// signedKey turns a sign and a magnitude bit pattern into an int64 that
// orders like the value. For a normal or infinite operand the magnitude
// pattern is orderKey's magnitude, so the two paths agree.
func signedKey(mag uint64, neg bool) int64 {
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

// cmpKeys compares two order keys: -1, 0 or +1.
func cmpKeys(ka, kb int64) int {
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	}
	return 0
}

// Less64 reports a < b (false if unordered).
func Less64(a, b F64) bool { return Cmp64(a, b) == -1 }

// Eq64 reports a == b (false if unordered; -0 == +0).
func Eq64(a, b F64) bool { return Cmp64(a, b) == 0 }

// Conversions.

// To32 converts a 64-bit value to 32 bits with rounding (the adder
// performs "data conversions" on the real machine).
func To32(a F64) F32 {
	u := unpack(fmt64, uint64(a))
	switch u.cls {
	case clNaN:
		return F32(fmt32.quietNaN())
	case clInf:
		return F32(fmt32.inf(u.sign))
	case clZero:
		return F32(u.sign << (fmt32.expBits + fmt32.fracBits))
	}
	// Reposition the significand to fracBits32+3 bits + sticky.
	drop := fmt64.fracBits - fmt32.fracBits - 3 // 26 bits
	sticky := uint64(0)
	if u.sig&((1<<drop)-1) != 0 {
		sticky = 1
	}
	sig := u.sig>>drop | sticky
	return F32(roundPack(fmt32, u.sign, u.exp, sig))
}

// To64 converts a 32-bit value to 64 bits exactly.
func To64(a F32) F64 {
	u := unpack(fmt32, uint64(a))
	switch u.cls {
	case clNaN:
		return F64(fmt64.quietNaN())
	case clInf:
		return F64(fmt64.inf(u.sign))
	case clZero:
		return F64(u.sign << (fmt64.expBits + fmt64.fracBits))
	}
	sig := u.sig << (fmt64.fracBits - fmt32.fracBits)
	return F64(pack(fmt64, unpacked{sign: u.sign, exp: u.exp, sig: sig, cls: clNormal}))
}

// FromInt64 converts an integer to the nearest 64-bit value.
func FromInt64(v int64) F64 {
	if v == 0 {
		return 0
	}
	sign := uint64(0)
	mag := uint64(v)
	if v < 0 {
		sign = 1
		mag = -uint64(v) // MinInt64 maps to 2^63, which is exact
	}
	// Keep mag<<3 within 64 bits, folding dropped bits into sticky;
	// roundPack renormalises from any leading-bit position.
	exp := int(fmt64.fracBits)
	for mag >= 1<<61 {
		sticky := mag & 1
		mag = mag>>1 | sticky
		exp++
	}
	return F64(roundPack(fmt64, sign, exp, mag<<3))
}

// ToInt64 truncates a toward zero. Out-of-range values (and NaN) saturate.
func ToInt64(a F64) int64 {
	u := unpack(fmt64, uint64(a))
	switch u.cls {
	case clNaN:
		return 0
	case clZero:
		return 0
	case clInf:
		if u.sign == 1 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	shift := u.exp - int(fmt64.fracBits)
	var mag uint64
	switch {
	case shift >= 11: // exponent ≥ 63: overflow
		if u.sign == 1 {
			return math.MinInt64
		}
		return math.MaxInt64
	case shift >= 0:
		mag = u.sig << uint(shift)
	case shift > -64:
		mag = u.sig >> uint(-shift)
	default:
		mag = 0
	}
	if u.sign == 1 {
		if mag > 1<<63 {
			return math.MinInt64
		}
		return -int64(mag)
	}
	if mag > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(mag)
}

// Bridges to native Go floating point (for oracles and workload setup).
// FromFloat64 flushes denormal inputs to zero, as the hardware would on
// load.

// FromFloat64 converts a native float64 to an F64 bit pattern.
func FromFloat64(v float64) F64 {
	bitsv := math.Float64bits(v)
	u := unpack(fmt64, bitsv)
	if u.cls == clZero { // flushes denormals
		return F64(u.sign << (fmt64.expBits + fmt64.fracBits))
	}
	return F64(bitsv)
}

// Float64 converts an F64 bit pattern to a native float64.
func (a F64) Float64() float64 { return math.Float64frombits(uint64(a)) }

// FromFloat32 converts a native float32 to an F32 bit pattern.
func FromFloat32(v float32) F32 {
	bitsv := uint64(math.Float32bits(v))
	u := unpack(fmt32, bitsv)
	if u.cls == clZero {
		return F32(u.sign << (fmt32.expBits + fmt32.fracBits))
	}
	return F32(bitsv)
}

// Float32 converts an F32 bit pattern to a native float32.
func (a F32) Float32() float32 { return math.Float32frombits(uint32(a)) }

// Sqrt64 computes a correctly rounded square root by digit recurrence
// (software on the real machine, like division).
func Sqrt64(a F64) F64 {
	u := unpack(fmt64, uint64(a))
	switch {
	case u.cls == clNaN:
		return F64(fmt64.quietNaN())
	case u.cls == clZero:
		return F64(u.sign << (fmt64.expBits + fmt64.fracBits))
	case u.sign == 1:
		return F64(fmt64.quietNaN()) // sqrt of negative
	case u.cls == clInf:
		return F64(fmt64.inf(0))
	}
	exp := u.exp
	sig := u.sig // 53 bits, in [2^52, 2^53)
	// Make the exponent even and widen: value = sig * 2^(exp-52).
	if exp&1 != 0 {
		sig <<= 1
		exp--
	}
	// Want r = sqrt(sig * 2^(exp-52)) = sqrt(sig) * 2^((exp-52)/2).
	// Compute an integer sqrt of sig << 58 (even shift keeps exactness),
	// giving ~55–56 result bits: enough for 53 + GRS.
	const widen = 58
	hi := sig >> (64 - widen)
	lo := sig << widen
	r, rem := isqrt128(hi, lo)
	sticky := uint64(0)
	if rem != 0 {
		sticky = 1
	}
	// r = sqrt(sig)*2^(widen/2) (truncated); value = r * 2^((exp-52-widen)/2… )
	// r has ~(53+widen)/2 = 55 or 56 bits; roundPack renormalises.
	// value = r · 2^((exp−52)/2 − widen/2); roundPack uses r·2^(E−55)
	// after normalising to bit 55, so solve for E per the actual top bit —
	// delegate by expressing value = r · 2^(e2) and E = e2 + 55:
	e2 := (exp-int(fmt64.fracBits))/2 - widen/2
	return F64(roundPack(fmt64, 0, e2+int(fmt64.fracBits)+3, r|sticky))
}

// isqrt128 returns floor(sqrt(hi·2^64+lo)) and a nonzero indicator of the
// remainder.
func isqrt128(hi, lo uint64) (root, rem uint64) {
	// Bit-by-bit restoring square root: 64 result bits from the 128-bit
	// operand, two operand bits consumed per iteration.
	var r uint64
	var acc hi128
	op := hi128{hi, lo}
	for i := 0; i < 64; i++ {
		acc = acc.shl2()
		acc.lo |= (op.hi >> 62) & 3
		op = op.shl2()
		t := hi128{r >> 62, r<<2 | 1}
		if !acc.less(t) {
			acc = acc.sub(t)
			r = r<<1 | 1
		} else {
			r <<= 1
		}
	}
	if acc.hi != 0 || acc.lo != 0 {
		rem = 1
	}
	return r, rem
}

// hi128 is a minimal 128-bit unsigned integer for the square-root helper.
type hi128 struct{ hi, lo uint64 }

func (x hi128) shl2() hi128 {
	return hi128{x.hi<<2 | x.lo>>62, x.lo << 2}
}

func (x hi128) less(y hi128) bool {
	if x.hi != y.hi {
		return x.hi < y.hi
	}
	return x.lo < y.lo
}

func (x hi128) sub(y hi128) hi128 {
	lo := x.lo - y.lo
	borrow := uint64(0)
	if x.lo < y.lo {
		borrow = 1
	}
	return hi128{x.hi - y.hi - borrow, lo}
}
