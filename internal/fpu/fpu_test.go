package fpu

import (
	"math"
	"math/rand"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// rig builds a kernel, memory and unit for one test.
func rig() (*sim.Kernel, *memory.Memory, *Unit) {
	k := sim.NewKernel()
	m := memory.New(k, "n0")
	u := New(k, "n0", m)
	return k, m, u
}

// fillRow64 writes vals into row r as 64-bit elements.
func fillRow64(m *memory.Memory, r int, vals []float64) {
	for i, v := range vals {
		m.PokeF64(r*memory.F64PerRow+i, fparith.FromFloat64(v))
	}
}

func rowVals64(m *memory.Memory, r, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.PeekF64(r*memory.F64PerRow + i).Float64()
	}
	return out
}

func TestVAddValues(t *testing.T) {
	k, m, u := rig()
	n := memory.F64PerRow
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 1.5
		ys[i] = float64(n-i) * 0.25
	}
	fillRow64(m, 0, xs)   // bank A
	fillRow64(m, 300, ys) // bank B
	var res Result
	k.Go("cp", func(p *sim.Proc) {
		var err error
		res, err = u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 301})
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	k.Run(0)
	got := rowVals64(m, 301, n)
	for i := range got {
		if got[i] != xs[i]+ys[i] {
			t.Fatalf("z[%d] = %g, want %g", i, got[i], xs[i]+ys[i])
		}
	}
	if res.Flops != n {
		t.Fatalf("flops = %d, want %d", res.Flops, n)
	}
}

func TestSAXPYValuesAndTiming(t *testing.T) {
	k, m, u := rig()
	n := memory.F64PerRow
	a := 2.5
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i))
		ys[i] = math.Cos(float64(i))
	}
	fillRow64(m, 10, xs)  // bank A
	fillRow64(m, 400, ys) // bank B
	var elapsed sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		res, err := u.Run(p, Op{Form: SAXPY, Prec: P64, X: 10, Y: 400, Z: 401, A: fparith.FromFloat64(a)})
		if err != nil {
			t.Errorf("run: %v", err)
		}
		elapsed = res.Elapsed
	})
	k.Run(0)
	got := rowVals64(m, 401, n)
	for i := range got {
		want := float64(a*xs[i]) + ys[i] // unfused, as the multiplier and adder each round
		if got[i] != want {
			t.Fatalf("z[%d] = %g, want %g", i, got[i], want)
		}
	}
	// Timing: row load 400ns (parallel banks) + (7+6 fill + 128)·125ns
	// stream + row store 400ns = 18425 ns.
	want := 400*sim.Nanosecond + sim.Duration(7+6+128)*sim.Cycle + 400*sim.Nanosecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	// Sustained rate for one chained row op.
	mflops := float64(2*n) / elapsed.Seconds() / 1e6
	if mflops < 13.5 || mflops > 16.0 {
		t.Fatalf("sustained MFLOPS = %.2f, want ~13.9 (below 16 peak)", mflops)
	}
}

func TestPeakRate(t *testing.T) {
	// The steady-state SAXPY rate (ignoring fill and row overhead) is
	// exactly 2 flops per 125 ns = 16 MFLOPS.
	perElement := sim.Cycle.Seconds()
	if got := 2 / perElement / 1e6; math.Abs(got-16) > 1e-9 {
		t.Fatalf("peak = %v MFLOPS, want 16", got)
	}
}

func TestSameBankPenalty(t *testing.T) {
	k, m, u := rig()
	fillRow64(m, 0, make([]float64, memory.F64PerRow))
	fillRow64(m, 1, make([]float64, memory.F64PerRow))
	var elapsed sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		res, err := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 1, Z: 2}) // all bank A
		if err != nil {
			t.Errorf("run: %v", err)
		}
		elapsed = res.Elapsed
	})
	k.Run(0)
	// 2 serialised row loads + (6 fill + 2·128)·125ns + store.
	want := 800*sim.Nanosecond + sim.Duration(6+256)*sim.Cycle + 400*sim.Nanosecond
	if elapsed != want {
		t.Fatalf("same-bank elapsed = %v, want %v", elapsed, want)
	}
}

func TestPipelineDepthVisible(t *testing.T) {
	// Time(N=1) − Time(N=0-ish) exposes the fill; compare N=1 and N=11:
	// difference must be exactly 10 cycles.
	k, m, u := rig()
	fillRow64(m, 0, make([]float64, memory.F64PerRow))
	fillRow64(m, 300, make([]float64, memory.F64PerRow))
	var t1, t11 sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		r, _ := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 2, N: 1})
		t1 = r.Elapsed
		r, _ = u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 2, N: 11})
		t11 = r.Elapsed
	})
	k.Run(0)
	if t11-t1 != 10*sim.Cycle {
		t.Fatalf("throughput = %v per 10 elements, want 10 cycles", t11-t1)
	}
	// Fill for a pure adder form is 6 cycles: N=1 takes loads+7 cycles+store.
	want := 400*sim.Nanosecond + 7*sim.Cycle + 400*sim.Nanosecond
	if t1 != want {
		t.Fatalf("t1 = %v, want %v (6-stage fill + 1)", t1, want)
	}
}

func TestMultiplierDepth64vs32(t *testing.T) {
	u := New(sim.NewKernel(), "x", nil)
	if u.Multiplier.Depth(P32) != 5 || u.Multiplier.Depth(P64) != 7 {
		t.Fatal("multiplier depths wrong")
	}
	if u.Adder.Depth(P32) != 6 || u.Adder.Depth(P64) != 6 {
		t.Fatal("adder depths wrong")
	}
}

func TestDotProduct(t *testing.T) {
	k, m, u := rig()
	n := memory.F64PerRow
	xs := make([]float64, n)
	ys := make([]float64, n)
	var want float64
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
		ys[i] = float64(i + 1)
		want += xs[i] * ys[i] // each product is exactly 1.0
	}
	fillRow64(m, 0, xs)
	fillRow64(m, 300, ys)
	var got float64
	k.Go("cp", func(p *sim.Proc) {
		res, err := u.Run(p, Op{Form: Dot, Prec: P64, X: 0, Y: 300})
		if err != nil {
			t.Errorf("dot: %v", err)
		}
		got = res.Scalar.Float64()
	})
	k.Run(0)
	if got != want { // all products are exactly 1.0, so any order sums exactly
		t.Fatalf("dot = %g, want %g", got, want)
	}
}

func TestDotDeterministic(t *testing.T) {
	run := func() fparith.F64 {
		k, m, u := rig()
		r := rand.New(rand.NewSource(7))
		n := memory.F64PerRow
		for i := 0; i < n; i++ {
			m.PokeF64(i, fparith.FromFloat64(r.NormFloat64()))
			m.PokeF64(300*memory.F64PerRow+i, fparith.FromFloat64(r.NormFloat64()))
		}
		var s fparith.F64
		k.Go("cp", func(p *sim.Proc) {
			res, _ := u.Run(p, Op{Form: Dot, Prec: P64, X: 0, Y: 300})
			s = res.Scalar
		})
		k.Run(0)
		return s
	}
	if run() != run() {
		t.Fatal("dot product not bit-reproducible")
	}
}

func TestSumNearNative(t *testing.T) {
	k, m, u := rig()
	n := memory.F64PerRow
	var want float64
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		want += xs[i]
	}
	fillRow64(m, 5, xs)
	var got float64
	k.Go("cp", func(p *sim.Proc) {
		res, _ := u.Run(p, Op{Form: Sum, Prec: P64, X: 5})
		got = res.Scalar.Float64()
	})
	k.Run(0)
	if math.Abs(got-want) > 1e-10*math.Abs(want) {
		t.Fatalf("sum = %g, native order = %g (too far)", got, want)
	}
}

func TestMaxMin(t *testing.T) {
	k, m, u := rig()
	xs := []float64{3, -7, 2.5, 9.25, -1}
	fillRow64(m, 0, xs)
	var mx, mn float64
	k.Go("cp", func(p *sim.Proc) {
		r, _ := u.Run(p, Op{Form: VMax, Prec: P64, X: 0, N: len(xs)})
		mx = r.Scalar.Float64()
		r, _ = u.Run(p, Op{Form: VMin, Prec: P64, X: 0, N: len(xs)})
		mn = r.Scalar.Float64()
	})
	k.Run(0)
	if mx != 9.25 || mn != -7 {
		t.Fatalf("max/min = %g/%g", mx, mn)
	}
}

func TestStatusFlags(t *testing.T) {
	k, m, u := rig()
	fillRow64(m, 0, []float64{1e300, math.Inf(1)})
	fillRow64(m, 300, []float64{1e300, math.Inf(-1)})
	var st Status
	k.Go("cp", func(p *sim.Proc) {
		// 1e300+1e300 is finite; Inf + -Inf is NaN (invalid).
		r, _ := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 2, N: 2})
		st = r.Status
	})
	k.Run(0)
	if !st.Invalid {
		t.Fatal("invalid flag not set for Inf + -Inf")
	}
	k2, m2, u2 := rig()
	fillRow64(m2, 0, []float64{1e300})
	fillRow64(m2, 300, []float64{1e300})
	k2.Go("cp", func(p *sim.Proc) {
		r, _ := u2.Run(p, Op{Form: VMul, Prec: P64, X: 0, Y: 300, Z: 2, N: 1})
		st = r.Status
	})
	k2.Run(0)
	if !st.Overflow {
		t.Fatal("overflow flag not set for 1e300*1e300")
	}
}

func TestOverlapWithControlProcessor(t *testing.T) {
	// §II: the arithmetic unit operates in parallel with the node control
	// processor. A vector form started asynchronously must overlap with
	// CP work: total time = max, not sum.
	k, m, u := rig()
	fillRow64(m, 0, make([]float64, memory.F64PerRow))
	fillRow64(m, 300, make([]float64, memory.F64PerRow))
	var total sim.Time
	k.Go("cp", func(p *sim.Proc) {
		pd := u.Start(Op{Form: SAXPY, Prec: P64, X: 0, Y: 300, Z: 301, A: fparith.FromFloat64(1)})
		p.Wait(10 * sim.Microsecond) // CP gathers the next vector meanwhile
		if _, err := pd.Wait(p); err != nil {
			t.Errorf("pending: %v", err)
		}
		total = p.Now()
	})
	k.Run(0)
	// SAXPY alone takes 18.425µs > the CP's 10µs, so the total is the
	// SAXPY time, not 28.4µs.
	want := sim.Time(18425 * sim.Nanosecond)
	if total != want {
		t.Fatalf("total = %v, want %v (full overlap)", total, want)
	}
}

func Test32BitMode(t *testing.T) {
	k, m, u := rig()
	n := memory.F32PerRow
	for i := 0; i < n; i++ {
		m.PokeF32(i, fparith.FromFloat32(float32(i)))             // row 0
		m.PokeF32(300*memory.F32PerRow+i, fparith.FromFloat32(2)) // row 300
	}
	var elapsed sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		res, err := u.Run(p, Op{Form: VMul, Prec: P32, X: 0, Y: 300, Z: 301})
		if err != nil {
			t.Errorf("run: %v", err)
		}
		elapsed = res.Elapsed
	})
	k.Run(0)
	for i := 0; i < n; i++ {
		got := m.PeekF32(301*memory.F32PerRow + i).Float32()
		if got != float32(i)*2 {
			t.Fatalf("z[%d] = %g", i, got)
		}
	}
	// 256 elements at one result per cycle, multiplier fill 5.
	want := 400*sim.Nanosecond + sim.Duration(5+256)*sim.Cycle + 400*sim.Nanosecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestConversions(t *testing.T) {
	k, m, u := rig()
	vals := []float64{1.5, -2.25, 1e20, 0.1}
	fillRow64(m, 0, vals)
	k.Go("cp", func(p *sim.Proc) {
		if _, err := u.Run(p, Op{Form: Cvt64to32, Prec: P64, X: 0, Z: 300, N: len(vals)}); err != nil {
			t.Errorf("cvt: %v", err)
		}
		if _, err := u.Run(p, Op{Form: Cvt32to64, Prec: P64, X: 300, Z: 2, N: len(vals)}); err != nil {
			t.Errorf("cvt back: %v", err)
		}
	})
	k.Run(0)
	for i, v := range vals {
		if got := m.PeekF32(300*memory.F32PerRow + i).Float32(); got != float32(v) {
			t.Fatalf("narrowed[%d] = %g, want %g", i, got, float32(v))
		}
		if got := m.PeekF64(2*memory.F64PerRow + i).Float64(); got != float64(float32(v)) {
			t.Fatalf("widened[%d] = %g", i, got)
		}
	}
}

func TestSingleBankAblation(t *testing.T) {
	// With one bank, a dyadic op streams at half rate even with operands
	// in what would have been different banks.
	k, m, u := rig()
	u.SingleBankMode = true
	fillRow64(m, 0, make([]float64, memory.F64PerRow))
	fillRow64(m, 300, make([]float64, memory.F64PerRow))
	var elapsed sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		r, _ := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 301})
		elapsed = r.Elapsed
	})
	k.Run(0)
	want := 800*sim.Nanosecond + sim.Duration(6+256)*sim.Cycle + 400*sim.Nanosecond
	if elapsed != want {
		t.Fatalf("single-bank elapsed = %v, want %v", elapsed, want)
	}
}

func TestValidation(t *testing.T) {
	k, _, u := rig()
	var errs []error
	k.Go("cp", func(p *sim.Proc) {
		_, e1 := u.Run(p, Op{Form: VAdd, Prec: P64, X: -1, Y: 0, Z: 1})
		_, e2 := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 0, Z: 5000})
		_, e3 := u.Run(p, Op{Form: VAdd, Prec: P64, X: 0, Y: 0, Z: 1, N: 500})
		errs = append(errs, e1, e2, e3)
	})
	k.Run(0)
	for i, e := range errs {
		if e == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestUnitSerialises(t *testing.T) {
	// Two forms started together run one after the other on the single
	// sequencer.
	k, m, u := rig()
	fillRow64(m, 0, make([]float64, memory.F64PerRow))
	fillRow64(m, 300, make([]float64, memory.F64PerRow))
	pdone := make([]sim.Time, 0, 2)
	k.Go("cp", func(p *sim.Proc) {
		a := u.Start(Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 301})
		b := u.Start(Op{Form: VAdd, Prec: P64, X: 0, Y: 300, Z: 302})
		a.Wait(p)
		pdone = append(pdone, p.Now())
		b.Wait(p)
		pdone = append(pdone, p.Now())
	})
	k.Run(0)
	if pdone[1] < pdone[0]*2-sim.Time(sim.Microsecond) {
		// Second op must take roughly another full op time.
		t.Logf("serialised times: %v", pdone)
	}
	if pdone[0] == pdone[1] {
		t.Fatal("two forms completed simultaneously on one unit")
	}
}

func TestQuickFormsMatchScalarArithmetic(t *testing.T) {
	// Property: every dyadic vector form produces exactly the same bit
	// patterns as element-by-element fparith calls on random operands.
	r := rand.New(rand.NewSource(77))
	forms := []struct {
		form Form
		ref  func(a, x, y fparith.F64) fparith.F64
	}{
		{VAdd, func(_, x, y fparith.F64) fparith.F64 { return fparith.Add64(x, y) }},
		{VSub, func(_, x, y fparith.F64) fparith.F64 { return fparith.Sub64(x, y) }},
		{VMul, func(_, x, y fparith.F64) fparith.F64 { return fparith.Mul64(x, y) }},
		{SAXPY, func(a, x, y fparith.F64) fparith.F64 { return fparith.Add64(fparith.Mul64(a, x), y) }},
	}
	for trial := 0; trial < 6; trial++ {
		k, m, u := rig()
		xs := make([]fparith.F64, memory.F64PerRow)
		ys := make([]fparith.F64, memory.F64PerRow)
		for i := range xs {
			xs[i] = fparith.FromFloat64(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
			ys[i] = fparith.FromFloat64(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
			m.PokeF64(i, xs[i])
			m.PokeF64(300*memory.F64PerRow+i, ys[i])
		}
		a := fparith.FromFloat64(r.NormFloat64())
		k.Go("cp", func(p *sim.Proc) {
			for _, f := range forms {
				if _, err := u.Run(p, Op{Form: f.form, Prec: P64, X: 0, Y: 300, Z: 301, A: a}); err != nil {
					t.Errorf("%v: %v", f.form, err)
					return
				}
				for i := 0; i < memory.F64PerRow; i++ {
					want := f.ref(a, xs[i], ys[i])
					got := m.PeekF64(301*memory.F64PerRow + i)
					if got != want && !(fparith.IsNaN64(got) && fparith.IsNaN64(want)) {
						t.Errorf("%v element %d: %x vs %x", f.form, i, got, want)
						return
					}
				}
			}
		})
		k.Run(0)
	}
}

func TestRemainingFormsValues(t *testing.T) {
	k, m, u := rig()
	xs := []float64{-2, 0.5, 3, -0.25}
	ys := []float64{1, 0.5, -3, -0.25}
	for i := range xs {
		m.PokeF64(i, fparith.FromFloat64(xs[i]))
		m.PokeF64(300*memory.F64PerRow+i, fparith.FromFloat64(ys[i]))
	}
	n := len(xs)
	k.Go("cp", func(p *sim.Proc) {
		check := func(form Form, a float64, want func(i int) float64) {
			op := Op{Form: form, Prec: P64, X: 0, Y: 300, Z: 301, N: n, A: fparith.FromFloat64(a)}
			if _, err := u.Run(p, op); err != nil {
				t.Errorf("%v: %v", form, err)
				return
			}
			for i := 0; i < n; i++ {
				got := m.PeekF64(301*memory.F64PerRow + i).Float64()
				if got != want(i) {
					t.Errorf("%v[%d] = %g, want %g", form, i, got, want(i))
				}
			}
		}
		check(VSub, 0, func(i int) float64 { return xs[i] - ys[i] })
		check(VSMul, 3, func(i int) float64 { return 3 * xs[i] })
		check(VSAdd, 10, func(i int) float64 { return 10 + xs[i] })
		check(VNeg, 0, func(i int) float64 { return -xs[i] })
		check(VAbs, 0, func(i int) float64 {
			if xs[i] < 0 {
				return -xs[i]
			}
			return xs[i]
		})
		check(VCmp, 0, func(i int) float64 {
			switch {
			case xs[i] < ys[i]:
				return -1
			case xs[i] > ys[i]:
				return 1
			}
			return 0
		})
	})
	k.Run(0)
}

func TestConversionFormsRejectP32(t *testing.T) {
	k, m, u := rig()
	_ = m
	var err error
	k.Go("cp", func(p *sim.Proc) {
		_, err = u.Run(p, Op{Form: Cvt64to32, Prec: P32, X: 0, Z: 1, N: 4})
	})
	k.Run(0)
	if err == nil {
		t.Fatal("conversion in 32-bit mode accepted")
	}
}

// TestRunDoesNotAllocate pins Unit.Run at zero heap allocations for a
// dyadic form in both bank layouts: Y sharing X's bank, and Y in the
// other bank, where Run holds both bank ports.
func TestRunDoesNotAllocate(t *testing.T) {
	for _, y := range []int{1, yTwoBank} {
		k, m, u := rig()
		fillRow64(m, 0, []float64{1.5, 2.5, 3.5})
		fillRow64(m, y, []float64{0.25, -4, 8})
		op := Op{Form: SAXPY, Prec: P64, X: 0, Y: y, Z: 300, A: fparith.FromFloat64(3)}
		k.Go("cp", func(p *sim.Proc) {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := u.Run(p, op); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Y in bank %v: %v allocations per Run, want 0", memory.BankOf(y), allocs)
			}
		})
		k.Run(0)
	}
}
