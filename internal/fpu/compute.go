package fpu

import (
	"fmt"

	"tseries/internal/fparith"
)

// compute performs the element arithmetic of a validated vector form.
// Timing was already charged by Run; this produces the bit-exact values
// the hardware would deliver, including the deterministic reduction order
// imposed by the adder's feedback accumulators.
//
// The loops below are the simulator's datapath fast lane: one
// specialized loop per form, operating on typed row views (word slices
// backed by the row buffers) with the status flags accumulated in
// locals. Each arithmetic form's loop is a small function of its own, so
// the compiler keeps its operands in registers, and it inlines fparith's
// host-path primitives (HostAdd64, HostMul64, ...). A loop calls the
// scalar entry point and note64/note32 only for an element the
// primitives do not keep: a zero, denormal, Inf or NaN operand, or a
// result that overflows or lies in the underflow band. A kept result is
// the scalar entry point's exact bits and raises no flag. Element order
// — and therefore aliasing behaviour when Z is X or Y, and the feedback
// accumulator order of the reductions — is identical to the hardware's
// sequential retirement.
//
// The row buffers load X, and Y where the form reads it, through the
// row port, so a byte of either that fails parity stops the form with
// the port's ParityError before it writes Z.
func (u *Unit) compute(op Op) (Result, error) {
	if err := u.mem.CheckRow(op.X); err != nil {
		return Result{}, err
	}
	if op.Form.usesY() {
		if err := u.mem.CheckRow(op.Y); err != nil {
			return Result{}, err
		}
	}
	if op.Prec == P64 {
		return u.compute64(op)
	}
	return u.compute32(op)
}

// IEEE bit masks for the inline status checks: an all-ones exponent is
// Inf (zero fraction → Overflow) or NaN (nonzero fraction → Invalid).
const (
	exp64Bits = uint64(0x7FF) << 52
	exp32Bits = uint32(0xFF) << 23
)

// note64 folds one 64-bit result into the status flags without
// unpacking. Small and call-free so it inlines into every form loop.
func note64(v uint64, inv, ovf bool) (bool, bool) {
	if v&exp64Bits == exp64Bits {
		if v<<12 != 0 {
			inv = true
		} else {
			ovf = true
		}
	}
	return inv, ovf
}

// note32 is the 32-bit counterpart of note64.
func note32(v uint32, inv, ovf bool) (bool, bool) {
	if v&exp32Bits == exp32Bits {
		if v<<9 != 0 {
			inv = true
		} else {
			ovf = true
		}
	}
	return inv, ovf
}

// maxPipeDepth bounds the feedback accumulator count of a reduction; the
// adder is six-stage in both precisions, so eight leaves headroom.
const maxPipeDepth = 8

func nan64() float64 {
	v := 0.0
	return v / v
}

func (u *Unit) compute64(op Op) (Result, error) {
	var res Result
	n := op.N
	res.Flops = n * op.Form.flopsPerElement()
	inv, ovf := false, false
	a := uint64(op.A)

	switch op.Form {
	case VAdd, VSub, VMul, SAXPY, VSMul, VSAdd, VNeg, VAbs, VCmp:
		xs := u.mem.RowF64s(op.X)[:n]
		zs := u.mem.RowF64s(op.Z)[:n]
		var ys []uint64
		if op.Form.usesY() {
			ys = u.mem.RowF64s(op.Y)[:n]
		}
		switch op.Form {
		case VAdd:
			inv, ovf = vadd64(xs, ys, zs)
		case VSub:
			inv, ovf = vsub64(xs, ys, zs)
		case VMul:
			inv, ovf = vmul64(xs, ys, zs)
		case SAXPY:
			inv, ovf = saxpy64(a, xs, ys, zs)
		case VSMul:
			inv, ovf = vsmul64(a, xs, zs)
		case VSAdd:
			inv, ovf = vsadd64(a, xs, zs)
		case VNeg:
			for i := range xs {
				v := uint64(fparith.Neg64(fparith.F64(xs[i])))
				inv, ovf = note64(v, inv, ovf)
				zs[i] = v
			}
		case VAbs:
			for i := range xs {
				v := uint64(fparith.Abs64(fparith.F64(xs[i])))
				inv, ovf = note64(v, inv, ovf)
				zs[i] = v
			}
		case VCmp:
			one := uint64(fparith.FromInt64(1))
			negOne := uint64(fparith.FromInt64(-1))
			qnan := uint64(fparith.FromFloat64(nan64()))
			for i := range xs {
				var v uint64
				switch fparith.Cmp64(fparith.F64(xs[i]), fparith.F64(ys[i])) {
				case -1:
					v = negOne
				case 0:
					v = 0
				case 1:
					v = one
				case 2: // unordered: a NaN operand
					inv = true
					v = qnan
				}
				inv, ovf = note64(v, inv, ovf)
				zs[i] = v
			}
		}
		u.mem.FlushRowF64s(op.Z, zs, n)

	case Dot, Sum:
		var acc [maxPipeDepth]uint64
		d := u.Adder.Depth(P64)
		xs := u.mem.RowF64s(op.X)[:n]
		if op.Form == Dot {
			inv, ovf = dot64(acc[:d], xs, u.mem.RowF64s(op.Y)[:n])
		} else {
			sum64(acc[:d], xs)
		}
		res.Scalar = drain64(acc[:min(n, d)])
		inv, ovf = note64(uint64(res.Scalar), inv, ovf)

	case VMax, VMin:
		xs := u.mem.RowF64s(op.X)[:n]
		want := 1
		if op.Form == VMin {
			want = -1
		}
		best := fparith.F64(xs[0])
		for i := 1; i < n; i++ {
			c := fparith.Cmp64(fparith.F64(xs[i]), best)
			if c == 2 {
				inv = true
				continue
			}
			if c == want {
				best = fparith.F64(xs[i])
			}
		}
		res.Scalar = best

	case Cvt64to32:
		xs := u.mem.RowF64s(op.X)[:n]
		zs := u.mem.RowF32s(op.Z)[:n]
		for i := range xs {
			v := fparith.To32(fparith.F64(xs[i]))
			inv, ovf = note32(uint32(v), inv, ovf)
			zs[i] = uint32(v)
		}
		u.mem.FlushRowF32s(op.Z, zs, n)

	case Cvt32to64:
		xs := u.mem.RowF32s(op.X)[:n]
		zs := u.mem.RowF64s(op.Z)[:n]
		for i := range xs {
			v := fparith.To64(fparith.F32(xs[i]))
			inv, ovf = note64(uint64(v), inv, ovf)
			zs[i] = uint64(v)
		}
		u.mem.FlushRowF64s(op.Z, zs, n)

	default:
		return res, fmt.Errorf("fpu: unknown form %v", op.Form)
	}
	res.Status.Invalid = inv
	res.Status.Overflow = ovf
	return res, nil
}

// The 64-bit arithmetic row loops. Each returns the Invalid and Overflow
// flags of the results it wrote; ys and zs are as long as xs.

func vadd64(xs, ys, zs []uint64) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostAdd64(x, y)
		if !ok {
			v = uint64(fparith.Add64(fparith.F64(x), fparith.F64(y)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsub64(xs, ys, zs []uint64) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostSub64(x, y)
		if !ok {
			v = uint64(fparith.Sub64(fparith.F64(x), fparith.F64(y)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vmul64(xs, ys, zs []uint64) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul64(x, y)
		if !ok {
			v = uint64(fparith.Mul64(fparith.F64(x), fparith.F64(y)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

// saxpy64 chains the multiplier into the adder: a product the host path
// does not keep, or a sum of a kept product it does not keep, sends the
// element through the scalar chain Add64(Mul64(a, x), y).
func saxpy64(a uint64, xs, ys, zs []uint64) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul64(a, x)
		if ok {
			v, ok = fparith.HostAdd64(v, y)
		}
		if !ok {
			v = uint64(fparith.Add64(fparith.Mul64(fparith.F64(a), fparith.F64(x)), fparith.F64(y)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsmul64(a uint64, xs, zs []uint64) (inv, ovf bool) {
	zs = zs[:len(xs)]
	for i, x := range xs {
		v, ok := fparith.HostMul64(a, x)
		if !ok {
			v = uint64(fparith.Mul64(fparith.F64(a), fparith.F64(x)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsadd64(a uint64, xs, zs []uint64) (inv, ovf bool) {
	zs = zs[:len(xs)]
	for i, x := range xs {
		v, ok := fparith.HostAdd64(a, x)
		if !ok {
			v = uint64(fparith.Add64(fparith.F64(a), fparith.F64(x)))
			inv, ovf = note64(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

// dot64 streams the products xs[i]*ys[i] into the feedback accumulators
// acc (one per adder stage) and returns the products' flags. The first
// len(acc) elements seed the accumulators; each later element i adds
// into accumulator i mod len(acc). A partial sum raises no flag of its
// own; the drained scalar does.
func dot64(acc, xs, ys []uint64) (inv, ovf bool) {
	ys = ys[:len(xs)]
	d := len(acc)
	j := 0
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul64(x, y)
		if !ok {
			v = uint64(fparith.Mul64(fparith.F64(x), fparith.F64(y)))
			inv, ovf = note64(v, inv, ovf)
		}
		if i < d {
			acc[j] = v
		} else if s, ok := fparith.HostAdd64(acc[j], v); ok {
			acc[j] = s
		} else {
			acc[j] = uint64(fparith.Add64(fparith.F64(acc[j]), fparith.F64(v)))
		}
		if j++; j == d {
			j = 0
		}
	}
	return inv, ovf
}

// sum64 is dot64 for the elements themselves.
func sum64(acc, xs []uint64) {
	d := len(acc)
	j := 0
	for i, x := range xs {
		if i < d {
			acc[j] = x
		} else if s, ok := fparith.HostAdd64(acc[j], x); ok {
			acc[j] = s
		} else {
			acc[j] = uint64(fparith.Add64(fparith.F64(acc[j]), fparith.F64(x)))
		}
		if j++; j == d {
			j = 0
		}
	}
}

// drain64 combines a reduction's seeded feedback accumulators in
// accumulator order — the deterministic drain the hardware performs when
// the pipeline empties.
func drain64(acc []uint64) fparith.F64 {
	var total fparith.F64
	for j, v := range acc {
		if j == 0 {
			total = fparith.F64(v)
		} else {
			total = fparith.Add64(total, fparith.F64(v))
		}
	}
	return total
}

func drain32(acc []uint32) fparith.F32 {
	var total fparith.F32
	for j, v := range acc {
		if j == 0 {
			total = fparith.F32(v)
		} else {
			total = fparith.Add32(total, fparith.F32(v))
		}
	}
	return total
}

func (u *Unit) compute32(op Op) (Result, error) {
	var res Result
	n := op.N
	res.Flops = n * op.Form.flopsPerElement()
	inv, ovf := false, false
	a := uint32(fparith.To32(op.A))

	switch op.Form {
	case VAdd, VSub, VMul, SAXPY, VSMul, VSAdd, VNeg, VAbs, VCmp:
		xs := u.mem.RowF32s(op.X)[:n]
		zs := u.mem.RowF32s(op.Z)[:n]
		var ys []uint32
		if op.Form.usesY() {
			ys = u.mem.RowF32s(op.Y)[:n]
		}
		switch op.Form {
		case VAdd:
			inv, ovf = vadd32(xs, ys, zs)
		case VSub:
			inv, ovf = vsub32(xs, ys, zs)
		case VMul:
			inv, ovf = vmul32(xs, ys, zs)
		case SAXPY:
			inv, ovf = saxpy32(a, xs, ys, zs)
		case VSMul:
			inv, ovf = vsmul32(a, xs, zs)
		case VSAdd:
			inv, ovf = vsadd32(a, xs, zs)
		case VNeg:
			for i := range xs {
				v := uint32(fparith.Neg32(fparith.F32(xs[i])))
				inv, ovf = note32(v, inv, ovf)
				zs[i] = v
			}
		case VAbs:
			for i := range xs {
				v := uint32(fparith.Abs32(fparith.F32(xs[i])))
				inv, ovf = note32(v, inv, ovf)
				zs[i] = v
			}
		case VCmp:
			one := uint32(fparith.FromFloat32(1))
			negOne := uint32(fparith.FromFloat32(-1))
			qnan := uint32(fparith.To32(fparith.FromFloat64(nan64())))
			for i := range xs {
				var v uint32
				switch fparith.Cmp32(fparith.F32(xs[i]), fparith.F32(ys[i])) {
				case -1:
					v = negOne
				case 0:
					v = 0
				case 1:
					v = one
				case 2: // unordered: a NaN operand
					inv = true
					v = qnan
				}
				inv, ovf = note32(v, inv, ovf)
				zs[i] = v
			}
		}
		u.mem.FlushRowF32s(op.Z, zs, n)

	case Dot, Sum:
		var acc [maxPipeDepth]uint32
		d := u.Adder.Depth(P32)
		xs := u.mem.RowF32s(op.X)[:n]
		if op.Form == Dot {
			inv, ovf = dot32(acc[:d], xs, u.mem.RowF32s(op.Y)[:n])
		} else {
			sum32(acc[:d], xs)
		}
		s := drain32(acc[:min(n, d)])
		inv, ovf = note32(uint32(s), inv, ovf)
		res.Scalar = fparith.To64(s)

	case VMax, VMin:
		xs := u.mem.RowF32s(op.X)[:n]
		want := 1
		if op.Form == VMin {
			want = -1
		}
		best := fparith.F32(xs[0])
		for i := 1; i < n; i++ {
			c := fparith.Cmp32(fparith.F32(xs[i]), best)
			if c == 2 {
				inv = true
				continue
			}
			if c == want {
				best = fparith.F32(xs[i])
			}
		}
		res.Scalar = fparith.To64(best)

	case Cvt64to32, Cvt32to64:
		return res, fmt.Errorf("fpu: conversion forms run in 64-bit mode")

	default:
		return res, fmt.Errorf("fpu: unknown form %v", op.Form)
	}
	res.Status.Invalid = inv
	res.Status.Overflow = ovf
	return res, nil
}

// The 32-bit arithmetic row loops, twins of the 64-bit ones.

func vadd32(xs, ys, zs []uint32) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostAdd32(x, y)
		if !ok {
			v = uint32(fparith.Add32(fparith.F32(x), fparith.F32(y)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsub32(xs, ys, zs []uint32) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostSub32(x, y)
		if !ok {
			v = uint32(fparith.Sub32(fparith.F32(x), fparith.F32(y)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vmul32(xs, ys, zs []uint32) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul32(x, y)
		if !ok {
			v = uint32(fparith.Mul32(fparith.F32(x), fparith.F32(y)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func saxpy32(a uint32, xs, ys, zs []uint32) (inv, ovf bool) {
	ys, zs = ys[:len(xs)], zs[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul32(a, x)
		if ok {
			v, ok = fparith.HostAdd32(v, y)
		}
		if !ok {
			v = uint32(fparith.Add32(fparith.Mul32(fparith.F32(a), fparith.F32(x)), fparith.F32(y)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsmul32(a uint32, xs, zs []uint32) (inv, ovf bool) {
	zs = zs[:len(xs)]
	for i, x := range xs {
		v, ok := fparith.HostMul32(a, x)
		if !ok {
			v = uint32(fparith.Mul32(fparith.F32(a), fparith.F32(x)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func vsadd32(a uint32, xs, zs []uint32) (inv, ovf bool) {
	zs = zs[:len(xs)]
	for i, x := range xs {
		v, ok := fparith.HostAdd32(a, x)
		if !ok {
			v = uint32(fparith.Add32(fparith.F32(a), fparith.F32(x)))
			inv, ovf = note32(v, inv, ovf)
		}
		zs[i] = v
	}
	return inv, ovf
}

func dot32(acc, xs, ys []uint32) (inv, ovf bool) {
	ys = ys[:len(xs)]
	d := len(acc)
	j := 0
	for i, x := range xs {
		y := ys[i]
		v, ok := fparith.HostMul32(x, y)
		if !ok {
			v = uint32(fparith.Mul32(fparith.F32(x), fparith.F32(y)))
			inv, ovf = note32(v, inv, ovf)
		}
		if i < d {
			acc[j] = v
		} else if s, ok := fparith.HostAdd32(acc[j], v); ok {
			acc[j] = s
		} else {
			acc[j] = uint32(fparith.Add32(fparith.F32(acc[j]), fparith.F32(v)))
		}
		if j++; j == d {
			j = 0
		}
	}
	return inv, ovf
}

func sum32(acc, xs []uint32) {
	d := len(acc)
	j := 0
	for i, x := range xs {
		if i < d {
			acc[j] = x
		} else if s, ok := fparith.HostAdd32(acc[j], x); ok {
			acc[j] = s
		} else {
			acc[j] = uint32(fparith.Add32(fparith.F32(acc[j]), fparith.F32(x)))
		}
		if j++; j == d {
			j = 0
		}
	}
}
