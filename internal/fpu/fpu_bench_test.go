package fpu

import (
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// benchForm measures one vector form end to end through Unit.Run: operand
// fetch, element arithmetic, status accumulation, and result store. The
// per-element figure (ns/op divided by the element count via SetBytes) is
// the datapath throughput the fast-lane work targets. X is row 0 in bank
// A; Y is row y, which is row 1 (bank A, shared with X) in the plain
// variants and yTwoBank (bank B, a port of its own) in the _2Bank ones.
func benchForm(b *testing.B, form Form, prec Precision, y int) {
	k := sim.NewKernel()
	m := memory.New(k, "b")
	u := New(k, "b", m)
	n := ElemsPerRow(prec)
	for i := 0; i < n; i++ {
		x, yv := 1.5+float64(i), 2.25+float64(i)
		if prec == P32 {
			// 32-bit elements, so every one of them is a normal operand.
			m.PokeF32(i, fparith.FromFloat32(float32(x)))
			m.PokeF32(y*memory.F32PerRow+i, fparith.FromFloat32(float32(yv)))
			continue
		}
		m.PokeF64(i, fparith.FromFloat64(x))                     // row 0 (X)
		m.PokeF64(y*memory.F64PerRow+i, fparith.FromFloat64(yv)) // row y (Y)
	}
	op := Op{Form: form, Prec: prec, X: 0, Y: y, Z: 300, A: fparith.FromFloat64(1.000244140625)}
	b.ReportAllocs()
	b.SetBytes(int64(n)) // elements per op → "MB/s" reads as Melem/s
	b.ResetTimer()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := u.Run(p, op); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Run(0)
}

// yTwoBank is a bank B row: a form reading X from row 0 and Y from it
// holds both bank ports.
const yTwoBank = memory.BankARows + 1

func BenchmarkForm_VAdd64(b *testing.B)  { benchForm(b, VAdd, P64, 1) }
func BenchmarkForm_VMul64(b *testing.B)  { benchForm(b, VMul, P64, 1) }
func BenchmarkForm_SAXPY64(b *testing.B) { benchForm(b, SAXPY, P64, 1) }
func BenchmarkForm_Dot64(b *testing.B)   { benchForm(b, Dot, P64, 1) }
func BenchmarkForm_Sum64(b *testing.B)   { benchForm(b, Sum, P64, 1) }
func BenchmarkForm_VCmp64(b *testing.B)  { benchForm(b, VCmp, P64, 1) }
func BenchmarkForm_VMax64(b *testing.B)  { benchForm(b, VMax, P64, 1) }
func BenchmarkForm_SAXPY32(b *testing.B) { benchForm(b, SAXPY, P32, 1) }
func BenchmarkForm_Dot32(b *testing.B)   { benchForm(b, Dot, P32, 1) }
func BenchmarkForm_VAdd32(b *testing.B)  { benchForm(b, VAdd, P32, 1) }

func BenchmarkForm_VAdd64_2Bank(b *testing.B)  { benchForm(b, VAdd, P64, yTwoBank) }
func BenchmarkForm_VMul64_2Bank(b *testing.B)  { benchForm(b, VMul, P64, yTwoBank) }
func BenchmarkForm_SAXPY64_2Bank(b *testing.B) { benchForm(b, SAXPY, P64, yTwoBank) }
func BenchmarkForm_Dot64_2Bank(b *testing.B)   { benchForm(b, Dot, P64, yTwoBank) }
func BenchmarkForm_VCmp64_2Bank(b *testing.B)  { benchForm(b, VCmp, P64, yTwoBank) }
func BenchmarkForm_SAXPY32_2Bank(b *testing.B) { benchForm(b, SAXPY, P32, yTwoBank) }
func BenchmarkForm_Dot32_2Bank(b *testing.B)   { benchForm(b, Dot, P32, yTwoBank) }
func BenchmarkForm_VAdd32_2Bank(b *testing.B)  { benchForm(b, VAdd, P32, yTwoBank) }
