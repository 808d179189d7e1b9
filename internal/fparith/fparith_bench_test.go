package fparith

import (
	"math"
	"testing"
)

// Operand pools for the arithmetic benchmarks: all normal numbers of
// varying exponent and significand, the case the host path targets.
// Each pool has 8 entries so the loops index it with &7: a division per
// index would cost about as much as the operation being measured.
var benchOps64 = func() (out [8]F64) {
	for i, v := range [8]float64{1.5, -2.25, 3.14159, 1e-12, -7.5e8, 0.001953125, 123456.78125, -1.0000000001} {
		out[i] = FromFloat64(v)
	}
	return out
}()

var benchOps32 = func() (out [8]F32) {
	for i, v := range [8]float32{1.5, -2.25, 3.14159, 1e-12, -7.5e8, 0.001953125, 123456.78, -1.0000001} {
		out[i] = FromFloat32(v)
	}
	return out
}()

// benchTiny64 holds normal operands of magnitude [1, 2)·2^-512, so every
// product lies below minNormal: the band the host path hands to the
// generic code.
var benchTiny64 = func() (out [8]F64) {
	for i, v := range [8]float64{1.5, -1.25, 1.75, 1.0625, -1.9, 1.3, -1.01, 1.6} {
		out[i] = FromFloat64(math.Ldexp(v, -512))
	}
	return out
}()

var sink64 F64
var sink32 F32

func BenchmarkAdd64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink64 = Add64(benchOps64[i&7], benchOps64[(i+3)&7])
	}
}

func BenchmarkSub64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink64 = Sub64(benchOps64[i&7], benchOps64[(i+3)&7])
	}
}

func BenchmarkMul64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink64 = Mul64(benchOps64[i&7], benchOps64[(i+3)&7])
	}
}

func BenchmarkMul64Underflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink64 = Mul64(benchTiny64[i&7], benchTiny64[(i+3)&7])
	}
}

func BenchmarkAdd32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink32 = Add32(benchOps32[i&7], benchOps32[(i+3)&7])
	}
}

func BenchmarkMul32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink32 = Mul32(benchOps32[i&7], benchOps32[(i+3)&7])
	}
}
