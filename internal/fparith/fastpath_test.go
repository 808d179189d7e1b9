package fparith

import (
	"math"
	"math/rand"
	"testing"
)

// The public Add/Sub/Mul run two normal operands on the host's IEEE unit
// and keep its result unless the result falls in the underflow band
// (biased exponent 0 or 1), where the generic bit-level add/mul take
// over. The host path must be a bit-exact replacement: for every input,
// the public entry points must return exactly what the generic path
// returns, and for normal operands both must agree with the host's IEEE
// arithmetic after the T Series' flush-to-zero is applied to the host
// result. These tests drive all three against each other, with the
// underflow band and the ±minNormal double-rounding boundary aimed at
// directly in TestUnderflowBoundary.

// checkAgainstGeneric compares one 64-bit operation against the generic
// path for one operand pair.
func checkAgainstGeneric64(t *testing.T, a, b F64) {
	t.Helper()
	if got, want := Add64(a, b), F64(add(fmt64, uint64(a), uint64(b), false)); got != want {
		t.Errorf("Add64(%#016x, %#016x) = %#016x, generic %#016x", uint64(a), uint64(b), uint64(got), uint64(want))
	}
	if got, want := Sub64(a, b), F64(add(fmt64, uint64(a), uint64(b), true)); got != want {
		t.Errorf("Sub64(%#016x, %#016x) = %#016x, generic %#016x", uint64(a), uint64(b), uint64(got), uint64(want))
	}
	if got, want := Mul64(a, b), F64(mul(fmt64, uint64(a), uint64(b))); got != want {
		t.Errorf("Mul64(%#016x, %#016x) = %#016x, generic %#016x", uint64(a), uint64(b), uint64(got), uint64(want))
	}
}

func checkAgainstGeneric32(t *testing.T, a, b F32) {
	t.Helper()
	if got, want := Add32(a, b), F32(add(fmt32, uint64(a), uint64(b), false)); got != want {
		t.Errorf("Add32(%#08x, %#08x) = %#08x, generic %#08x", uint32(a), uint32(b), uint32(got), uint32(want))
	}
	if got, want := Sub32(a, b), F32(add(fmt32, uint64(a), uint64(b), true)); got != want {
		t.Errorf("Sub32(%#08x, %#08x) = %#08x, generic %#08x", uint32(a), uint32(b), uint32(got), uint32(want))
	}
	if got, want := Mul32(a, b), F32(mul(fmt32, uint64(a), uint64(b))); got != want {
		t.Errorf("Mul32(%#08x, %#08x) = %#08x, generic %#08x", uint32(a), uint32(b), uint32(got), uint32(want))
	}
}

// checkAgainstHost64 compares against the host's IEEE double arithmetic
// for normal operands. The host supports gradual underflow and the T
// Series does not, so a denormal host result must flush to a signed
// zero; a host result of exactly ±minNormal sits on the double-rounding
// boundary between the two regimes and is skipped.
func checkAgainstHost64(t *testing.T, a, b F64) {
	t.Helper()
	if !isNorm64(uint64(a)) || !isNorm64(uint64(b)) {
		return
	}
	const minNormal = uint64(1) << 52
	check := func(name string, got F64, host float64) {
		hb := math.Float64bits(host)
		mag := hb &^ (1 << 63)
		switch {
		case mag == minNormal:
			return // underflow-threshold boundary: regimes legitimately differ
		case mag < minNormal:
			if want := F64(hb & (1 << 63)); got != want {
				t.Errorf("%s(%#016x, %#016x) = %#016x, want flushed %#016x", name, uint64(a), uint64(b), uint64(got), uint64(want))
			}
		default:
			if got != F64(hb) {
				t.Errorf("%s(%#016x, %#016x) = %#016x, host %#016x", name, uint64(a), uint64(b), uint64(got), hb)
			}
		}
	}
	check("Add64", Add64(a, b), a.Float64()+b.Float64())
	check("Sub64", Sub64(a, b), a.Float64()-b.Float64())
	check("Mul64", Mul64(a, b), a.Float64()*b.Float64())
}

func checkAgainstHost32(t *testing.T, a, b F32) {
	t.Helper()
	if !isNorm32(uint32(a)) || !isNorm32(uint32(b)) {
		return
	}
	const minNormal = uint32(1) << 23
	check := func(name string, got F32, host float32) {
		hb := math.Float32bits(host)
		mag := hb &^ (1 << 31)
		switch {
		case mag == minNormal:
			return
		case mag < minNormal:
			if want := F32(hb & (1 << 31)); got != want {
				t.Errorf("%s(%#08x, %#08x) = %#08x, want flushed %#08x", name, uint32(a), uint32(b), uint32(got), uint32(want))
			}
		default:
			if got != F32(hb) {
				t.Errorf("%s(%#08x, %#08x) = %#08x, host %#08x", name, uint32(a), uint32(b), uint32(got), hb)
			}
		}
	}
	check("Add32", Add32(a, b), a.Float32()+b.Float32())
	check("Sub32", Sub32(a, b), a.Float32()-b.Float32())
	check("Mul32", Mul32(a, b), a.Float32()*b.Float32())
}

// special64 is a corpus of edge-case bit patterns: zeros, denormals,
// normals at both range extremes, infinities, NaNs.
var special64 = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // min denormal
	0x000FFFFFFFFFFFFF, // max denormal
	0x8000000000000001, // -min denormal
	0x0010000000000000, // min normal
	0x0010000000000001,
	0x001FFFFFFFFFFFFF,
	0x3FF0000000000000, // 1.0
	0xBFF0000000000000, // -1.0
	0x3FF0000000000001,
	0x4000000000000000, // 2.0
	0x3FE0000000000000, // 0.5
	0x7FEFFFFFFFFFFFFF, // max normal
	0xFFEFFFFFFFFFFFFF, // -max normal
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // -Inf
	0x7FF8000000000000, // quiet NaN
	0x7FF0000000000001, // signalling NaN
	0x434FFFFFFFFFFFFF,
	0x0340000000000000, // tiny normal: products underflow
	0x7FD0000000000000, // huge normal: products overflow
}

var special32 = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007FFFFF, // denormals
	0x00800000, 0x00800001, // min normals
	0x00FFFFFF, 0x80FFFFFF, // ±largest significand at the minimum exponent
	0x3F800000, 0xBF800000, // ±1
	0x3F800001, 0x40000000, 0x3F000000,
	0x7F7FFFFF, 0xFF7FFFFF, // ±max normal
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0x7F800001, // NaNs
	0x1A000000, 0x7E800000, // under/overflow feeders
}

// TestExponentTests checks the shifted-form exponent tests against the
// biased exponent field, for every exponent, both signs and the
// fraction's extremes.
func TestExponentTests(t *testing.T) {
	for e := uint64(0); e <= 0x7FF; e++ {
		for _, x := range []uint64{e << 52, e<<52 | 1, e<<52 | (1<<52 - 1)} {
			for _, x := range []uint64{x, x | 1<<63} {
				if got, want := isNorm64(x), e >= 1 && e <= 0x7FE; got != want {
					t.Errorf("isNorm64(%#016x) = %v", x, got)
				}
				if got, want := kept64(x), e >= 2 && e <= 0x7FE; got != want {
					t.Errorf("kept64(%#016x) = %v", x, got)
				}
			}
		}
	}
	for e := uint32(0); e <= 0xFF; e++ {
		for _, x := range []uint32{e << 23, e<<23 | 1, e<<23 | (1<<23 - 1)} {
			for _, x := range []uint32{x, x | 1<<31} {
				if got, want := isNorm32(x), e >= 1 && e <= 0xFE; got != want {
					t.Errorf("isNorm32(%#08x) = %v", x, got)
				}
				if got, want := kept32(x), e >= 2 && e <= 0xFE; got != want {
					t.Errorf("kept32(%#08x) = %v", x, got)
				}
			}
		}
	}
}

// TestFastPathSpecials drives every pair from the special corpus through
// public-vs-generic (the host oracle skips non-normal operands itself).
func TestFastPathSpecials(t *testing.T) {
	for _, a := range special64 {
		for _, b := range special64 {
			checkAgainstGeneric64(t, F64(a), F64(b))
			checkAgainstHost64(t, F64(a), F64(b))
		}
	}
	for _, a := range special32 {
		for _, b := range special32 {
			checkAgainstGeneric32(t, F32(a), F32(b))
			checkAgainstHost32(t, F32(a), F32(b))
		}
	}
}

// TestFastPathDifferential compares public, generic and host arithmetic on
// a deterministic stream of random bit patterns, biased toward nearby
// exponents so cancellation, alignment-shift and rounding paths all get
// exercised.
func TestFastPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7E5E41E5))
	for i := 0; i < 200000; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		switch i % 4 {
		case 1:
			// Nearby exponents: deep cancellation in Add/Sub.
			b = b&^(uint64(0x7FF)<<52) | (a & (uint64(0x7FF) << 52))
		case 2:
			// Small exponents: flush-to-zero region for products.
			a = a &^ (uint64(0x600) << 52)
			b = b &^ (uint64(0x600) << 52)
		case 3:
			// Large exponents: overflow region.
			a = a | (uint64(0x600) << 52)
			b = b | (uint64(0x600) << 52)
		}
		checkAgainstGeneric64(t, F64(a), F64(b))
		checkAgainstHost64(t, F64(a), F64(b))

		a32 := uint32(a)
		b32 := uint32(b)
		checkAgainstGeneric32(t, F32(a32), F32(b32))
		checkAgainstHost32(t, F32(a32), F32(b32))
	}
}

// TestUnderflowBoundary aims products and sums at ±minNormal, where
// the host's gradual underflow and the T Series' flush-to-zero round
// differently, and compares the public entry points against the generic
// path there in both precisions.
func TestUnderflowBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0B0DE7))
	const (
		minNormal64 = uint64(1) << 52
		minNormal32 = uint32(1) << 23
		span        = 1 << 20 // operand distance from minNormal, in ulps
	)
	for i := 0; i < 200000; i++ {
		nudge := rng.Intn(9) - 4
		s1, s2 := rng.Uint64()&(1<<63), rng.Uint64()&(1<<63)

		// Products: b = minNormal/a, nudged by −4..+4 ulps, so a*b lands
		// within a few ulps of ±minNormal. a lies in [2^-20, 1), which
		// keeps b normal.
		a := rng.Uint64()&(1<<52-1) | uint64(1023-20+rng.Intn(20))<<52
		b := math.Float64bits(math.Float64frombits(minNormal64)/math.Float64frombits(a)) + uint64(nudge)
		checkAgainstGeneric64(t, F64(a|s1), F64(b|s2))

		a32 := uint32(a>>29)&(1<<23-1) | uint32(127-20+rng.Intn(20))<<23
		b32 := math.Float32bits(math.Float32frombits(minNormal32)/math.Float32frombits(a32)) + uint32(nudge)
		checkAgainstGeneric32(t, F32(a32|uint32(s1>>32)), F32(b32|uint32(s2>>32)))

		// Opposite-signed sums of operands within 2^20 ulps of minNormal.
		d1, d2 := rng.Intn(2*span+1)-span, rng.Intn(2*span+1)-span
		x, y := minNormal64+uint64(d1)|s1, minNormal64+uint64(d2)|s1^(1<<63)
		checkAgainstGeneric64(t, F64(x), F64(y))
		x32, y32 := minNormal32+uint32(d1)|uint32(s1>>32), minNormal32+uint32(d2)|uint32(s1>>32)^(1<<31)
		checkAgainstGeneric32(t, F32(x32), F32(y32))
	}
}

// Fuzz targets let `go test -fuzz` explore the operand space; under
// plain `go test` they run the seed corpus.

func FuzzArith64(f *testing.F) {
	for _, a := range special64 {
		for _, b := range special64 {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		checkAgainstGeneric64(t, F64(a), F64(b))
		checkAgainstHost64(t, F64(a), F64(b))
	})
}

func FuzzArith32(f *testing.F) {
	for _, a := range special32 {
		for _, b := range special32 {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b uint32) {
		checkAgainstGeneric32(t, F32(a), F32(b))
		checkAgainstHost32(t, F32(a), F32(b))
	})
}

// TestCmpFastPathMatchesGeneric checks Cmp64 and Cmp32, whose normal
// and infinite operands skip unpacking, against the generic cmp over
// every class pair: signed zeros, denormals of both signs, the extreme
// normals, infinities, quiet and signaling NaNs, and random normals.
func TestCmpFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	classes64 := []uint64{
		0, 1 << 63, // ±0
		1, 0x000fffffffffffff, 1<<63 | 1, 1<<63 | 0x000fffffffffffff, // denormals
		0x0010000000000000, 0x7fefffffffffffff, // smallest and largest normal
		1<<63 | 0x0010000000000000, 1<<63 | 0x7fefffffffffffff,
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0xfff8000000000001, // quiet NaNs
		0x7ff0000000000001, 0xfff4000000000000, // signaling NaNs
	}
	classes32 := []uint32{
		0, 1 << 31,
		1, 0x007fffff, 1<<31 | 1, 1<<31 | 0x007fffff,
		0x00800000, 0x7f7fffff, 1<<31 | 0x00800000, 1<<31 | 0x7f7fffff,
		0x7f800000, 0xff800000,
		0x7fc00000, 0xffc00001,
		0x7f800001, 0xffa00000,
	}
	for i := 0; i < 64; i++ {
		// Random normals: any sign and fraction, exponent field 1..max-1.
		e := uint64(1 + rng.Intn(0x7fe))
		classes64 = append(classes64, uint64(rng.Intn(2))<<63|e<<52|rng.Uint64()&(1<<52-1))
		e32 := uint32(1 + rng.Intn(0xfe))
		classes32 = append(classes32, uint32(rng.Intn(2))<<31|e32<<23|rng.Uint32()&(1<<23-1))
	}
	// Equal magnitudes of both signs, and neighbours one ulp apart.
	classes64 = append(classes64, classes64[20], classes64[20]^1<<63, classes64[20]+1)
	classes32 = append(classes32, classes32[20], classes32[20]^1<<31, classes32[20]+1)
	for _, a := range classes64 {
		for _, b := range classes64 {
			if got, want := Cmp64(F64(a), F64(b)), cmp(fmt64, a, b); got != want {
				t.Errorf("Cmp64(%#016x, %#016x) = %d, generic cmp says %d", a, b, got, want)
			}
		}
	}
	for _, a := range classes32 {
		for _, b := range classes32 {
			if got, want := Cmp32(F32(a), F32(b)), cmp(fmt32, uint64(a), uint64(b)); got != want {
				t.Errorf("Cmp32(%#08x, %#08x) = %d, generic cmp says %d", a, b, got, want)
			}
		}
	}
}
