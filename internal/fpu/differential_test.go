package fpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// The arithmetic row loops take fparith's host path per element and fall
// back to the scalar entry points for everything it does not keep. This
// test holds every arithmetic form, in both precisions, to the
// element-by-element scalar chain on operands aimed at the fallback:
// zeros, denormals, ±Inf and NaNs, products and sums in the underflow
// band, and overflow. Bits are compared exactly (a NaN must be the scalar
// chain's NaN) and so are the Result's status flags, with Z aliased to X
// and to Y as well as apart from both.

// corpus64 holds 64-bit operands that exercise every fallback. 1-2^-53
// times minNormal is the double-rounding case: the host rounds it up to
// minNormal, and the T Series flushes it to zero.
var corpus64 = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001, // denormals
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, // NaNs
	0x0010000000000000, 0x8018000000000000, // minNormal, -1.5·minNormal: sums flush
	0x2000000000000000, 0x1FF0000000000000, // 2^-511, 2^-512: products in the band
	0x3FEFFFFFFFFFFFFF, 0x3FF0000000000000, // 1-2^-53, 1
	0xBFF8000000000000, 0x400921FB54442D18, // -1.5, π
	0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, // ±max normal: sums overflow
	0x5FF0000000000000, // 2^512: products overflow
}

// corpus32 is the 32-bit counterpart of corpus64.
var corpus32 = []uint64{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007FFFFF, 0x80000001, // denormals
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0xFFC00001, 0x7F800001, // NaNs
	0x00800000, 0x80C00000, // minNormal, -1.5·minNormal
	0x20000000, 0x1F800000, // 2^-63, 2^-64
	0x3F7FFFFF, 0x3F800000, // 1-2^-24, 1
	0xBFC00000, 0x40490FDB, // -1.5, π
	0x7F7FFFFF, 0xFF7FFFFF, // ±max normal
	0x5F800000, // 2^64
}

// arith is one precision's scalar chain, with its values held in uint64.
type arith struct {
	prec          Precision
	corpus        []uint64
	add, sub, mul func(a, b uint64) uint64
	nan, inf      func(v uint64) bool
	scalar        func(v uint64) fparith.F64 // a reduction's Result.Scalar
	narrow        func(a fparith.F64) uint64 // the unit's view of Op.A
	poke          func(m *memory.Memory, e int, v uint64)
	peek          func(m *memory.Memory, e int) uint64
	float         func(v uint64) float64
	fromFloat     func(f float64) uint64
}

var arith64 = arith{
	prec:      P64,
	corpus:    corpus64,
	add:       func(a, b uint64) uint64 { return uint64(fparith.Add64(fparith.F64(a), fparith.F64(b))) },
	sub:       func(a, b uint64) uint64 { return uint64(fparith.Sub64(fparith.F64(a), fparith.F64(b))) },
	mul:       func(a, b uint64) uint64 { return uint64(fparith.Mul64(fparith.F64(a), fparith.F64(b))) },
	nan:       func(v uint64) bool { return fparith.IsNaN64(fparith.F64(v)) },
	inf:       func(v uint64) bool { return fparith.IsInf64(fparith.F64(v)) },
	scalar:    func(v uint64) fparith.F64 { return fparith.F64(v) },
	narrow:    func(a fparith.F64) uint64 { return uint64(a) },
	poke:      func(m *memory.Memory, e int, v uint64) { m.PokeF64(e, fparith.F64(v)) },
	peek:      func(m *memory.Memory, e int) uint64 { return uint64(m.PeekF64(e)) },
	float:     func(v uint64) float64 { return fparith.F64(v).Float64() },
	fromFloat: func(f float64) uint64 { return uint64(fparith.FromFloat64(f)) },
}

var arith32 = arith{
	prec:   P32,
	corpus: corpus32,
	add: func(a, b uint64) uint64 {
		return uint64(fparith.Add32(fparith.F32(a), fparith.F32(b)))
	},
	sub: func(a, b uint64) uint64 {
		return uint64(fparith.Sub32(fparith.F32(a), fparith.F32(b)))
	},
	mul: func(a, b uint64) uint64 {
		return uint64(fparith.Mul32(fparith.F32(a), fparith.F32(b)))
	},
	nan:       func(v uint64) bool { return fparith.IsNaN32(fparith.F32(v)) },
	inf:       func(v uint64) bool { return fparith.IsInf32(fparith.F32(v)) },
	scalar:    func(v uint64) fparith.F64 { return fparith.To64(fparith.F32(v)) },
	narrow:    func(a fparith.F64) uint64 { return uint64(fparith.To32(a)) },
	poke:      func(m *memory.Memory, e int, v uint64) { m.PokeF32(e, fparith.F32(v)) },
	peek:      func(m *memory.Memory, e int) uint64 { return uint64(m.PeekF32(e)) },
	float:     func(v uint64) float64 { return float64(fparith.F32(v).Float32()) },
	fromFloat: func(f float64) uint64 { return uint64(fparith.FromFloat32(float32(f))) },
}

// widen returns an Op.A whose narrowed value is a.
func (ar arith) widen(a uint64) fparith.F64 {
	if ar.prec == P64 {
		return fparith.F64(a)
	}
	return fparith.To64(fparith.F32(a))
}

// status folds values into the status flags the unit should raise.
func (ar arith) status(st Status, vs ...uint64) Status {
	for _, v := range vs {
		st.Invalid = st.Invalid || ar.nan(v)
		st.Overflow = st.Overflow || ar.inf(v)
	}
	return st
}

// reduce is the feedback-accumulator reduction of vs with d
// accumulators: element i adds into accumulator i mod d, and the
// accumulators drain in order.
func (ar arith) reduce(vs []uint64, d int) uint64 {
	var acc []uint64
	for i, v := range vs {
		if i < d {
			acc = append(acc, v)
		} else {
			acc[i%d] = ar.add(acc[i%d], v)
		}
	}
	total := acc[0]
	for _, v := range acc[1:] {
		total = ar.add(total, v)
	}
	return total
}

// expect computes a form's reference: its result row (nil for a
// reduction), its scalar, and its status flags.
func (ar arith) expect(form Form, a uint64, xs, ys []uint64, d int) (zs []uint64, scalar uint64, st Status) {
	each := func(f func(x, y uint64) uint64) {
		zs = make([]uint64, len(xs))
		for i := range xs {
			zs[i] = f(xs[i], ys[i])
			st = ar.status(st, zs[i])
		}
	}
	switch form {
	case VAdd:
		each(ar.add)
	case VSub:
		each(ar.sub)
	case VMul:
		each(ar.mul)
	case SAXPY:
		each(func(x, y uint64) uint64 { return ar.add(ar.mul(a, x), y) })
	case VSMul:
		each(func(x, _ uint64) uint64 { return ar.mul(a, x) })
	case VSAdd:
		each(func(x, _ uint64) uint64 { return ar.add(a, x) })
	case Dot:
		ps := make([]uint64, len(xs))
		for i := range xs {
			ps[i] = ar.mul(xs[i], ys[i])
			st = ar.status(st, ps[i])
		}
		scalar = ar.reduce(ps, d)
		st = ar.status(st, scalar)
	case Sum:
		scalar = ar.reduce(xs, d)
		st = ar.status(st, scalar)
	}
	return zs, scalar, st
}

func TestFormsMatchScalarChainOnFallbacks(t *testing.T) {
	for _, ar := range []arith{arith64, arith32} {
		testFormsOnFallbacks(t, ar)
	}
}

// blocks returns the X and Y rows to test. Element i of pair block b
// pairs corpus[j%L] with corpus[j/L%L], j = b·n+i, so these blocks cover
// every operand pair. Their reductions are NaN, so finite blocks follow:
// random normals of mixed magnitude with the corpus' zeros, denormals
// and band operands among them, whose Dot and Sum depend on the
// accumulator order.
func (ar arith) blocks(n int) (xs, ys [][]uint64) {
	L := len(ar.corpus)
	for b := 0; b*n < L*L; b++ {
		x, y := make([]uint64, n), make([]uint64, n)
		for i := range x {
			j := b*n + i
			x[i], y[i] = ar.corpus[j%L], ar.corpus[j/L%L]
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	var tame []uint64
	for _, v := range ar.corpus {
		if math.Abs(ar.float(v)) < 2 {
			tame = append(tame, v)
		}
	}
	r := rand.New(rand.NewSource(28))
	draw := func() uint64 {
		if r.Intn(4) == 0 {
			return tame[r.Intn(len(tame))]
		}
		return ar.fromFloat(r.NormFloat64() * math.Ldexp(1, r.Intn(17)-8))
	}
	for b := 0; b < 8; b++ {
		x, y := make([]uint64, n), make([]uint64, n)
		for i := range x {
			x[i], y[i] = draw(), draw()
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

func testFormsOnFallbacks(t *testing.T, ar arith) {
	forms := []Form{VAdd, VSub, VMul, SAXPY, VSMul, VSAdd, Dot, Sum}
	const rowX, rowY, rowZ = 0, memory.BankARows + 2, 300
	rowName := map[int]string{rowZ: "apart", rowX: "X", rowY: "Y"}
	n := ElemsPerRow(ar.prec)
	k, m, u := rig()
	d := u.Adder.Depth(ar.prec)
	xss, yss := ar.blocks(n)
	k.Go("cp", func(p *sim.Proc) {
		for blk, xs := range xss {
			ys := yss[blk]
			// Every corpus value serves as the scalar A for every block.
			for _, a := range ar.corpus {
				A := ar.widen(a)
				for _, form := range forms {
					zWant, sWant, stWant := ar.expect(form, ar.narrow(A), xs, ys, d)
					zRows := []int{rowZ, rowX, rowY}
					if !form.writesZ() {
						zRows = zRows[:1]
					} else if !form.usesY() {
						zRows = zRows[:2]
					}
					for _, z := range zRows {
						for i := range xs {
							ar.poke(m, rowX*n+i, xs[i])
							ar.poke(m, rowY*n+i, ys[i])
						}
						op := Op{Form: form, Prec: ar.prec, X: rowX, Y: rowY, Z: z, A: A}
						res, err := u.Run(p, op)
						if err != nil {
							t.Errorf("%v %v: %v", ar.prec, form, err)
							return
						}
						what := fmt.Sprintf("%v %v Z %s, block %d, A=%#x", form, ar.prec, rowName[z], blk, a)
						if res.Status != stWant {
							t.Errorf("%s: status %+v, want %+v", what, res.Status, stWant)
						}
						if !form.writesZ() {
							if got, want := res.Scalar, ar.scalar(sWant); got != want {
								t.Errorf("%s: scalar %#x, want %#x", what, uint64(got), uint64(want))
							}
							continue
						}
						for i, want := range zWant {
							if got := ar.peek(m, z*n+i); got != want {
								t.Errorf("%s: element %d (x=%#x y=%#x) %#x, want %#x", what, i, xs[i], ys[i], got, want)
								return
							}
						}
					}
				}
			}
		}
	})
	k.Run(0)
}
