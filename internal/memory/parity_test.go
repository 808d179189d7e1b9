package memory

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

// parityRef is the reference store for TestFaultLedgerMatchesParity: a
// window of rows kept as data plus one stored parity bit per byte, the
// way the hardware keeps them. Every write stores the parity of the
// byte it wrote; a bit flip changes the data alone.
type parityRef struct {
	base int // absolute address of the window's first byte
	data []byte
	par  []byte // 0 or 1 per byte
}

func (r *parityRef) write(addr int, b []byte) {
	i := addr - r.base
	copy(r.data[i:], b)
	r.repar(addr, len(b))
}

// repar stores the parity of the n bytes at addr, as a write of them does.
func (r *parityRef) repar(addr, n int) {
	for i := addr - r.base; i < addr-r.base+n; i++ {
		r.par[i] = byte(bits.OnesCount8(r.data[i]) & 1)
	}
}

// firstBad returns the lowest address in [addr, addr+n) whose data fails
// its stored parity, or -1.
func (r *parityRef) firstBad(addr, n int) int {
	for i := addr - r.base; i < addr-r.base+n; i++ {
		if byte(bits.OnesCount8(r.data[i])&1) != r.par[i] {
			return r.base + i
		}
	}
	return -1
}

// checkErr compares a validated read's error with the reference's
// lowest failing address.
func checkErr(what string, err error, want int) error {
	var pe *ParityError
	switch {
	case want < 0 && err != nil:
		return fmt.Errorf("%s: %v, want no error", what, err)
	case want >= 0 && !errors.As(err, &pe):
		return fmt.Errorf("%s: %v, want ParityError at %#x", what, err, want)
	case want >= 0 && pe.Addr != want:
		return fmt.Errorf("%s: ParityError at %#x, want %#x", what, pe.Addr, want)
	}
	return nil
}

// TestFaultLedgerMatchesParity holds the store's fault ledger to real
// per-byte parity: random writes of every kind and random bit flips go
// to a Memory and to parityRef, and after every step each validated
// read (ReadWord, Read64, LoadRow, validateRange) must report the
// reference's lowest failing address, or none, and the window's
// contents must match.
func TestFaultLedgerMatchesParity(t *testing.T) {
	const rows = 4
	seeds, steps := 200, 400
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		m := New(k, "n0")
		row0 := rng.Intn(NumRows - rows + 1)
		ref := &parityRef{base: RowAddr(row0), data: make([]byte, rows*RowBytes), par: make([]byte, rows*RowBytes)}
		addrIn := func(n int) int { return ref.base + rng.Intn(rows*RowBytes-n+1) }
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			if rng.Intn(4) != 0 { // else all zero
				rng.Read(b)
			}
			return b
		}
		lastFlip := ref.base
		var failed error
		k.Go("steps", func(p *sim.Proc) {
			var reg VectorReg
			for i := 0; i < steps && failed == nil; i++ {
				var op string
				switch rng.Intn(11) {
				case 0:
					a, v := addrIn(4)&^3, rng.Uint32()
					op = fmt.Sprintf("PokeWord(%#x)", a)
					m.PokeWord(a/4, v)
					ref.write(a, binary.LittleEndian.AppendUint32(nil, v))
				case 1:
					a, v := addrIn(8)&^7, rng.Uint64()
					op = fmt.Sprintf("PokeF64(%#x)", a)
					m.PokeF64(a/8, fparith.F64(v))
					ref.write(a, binary.LittleEndian.AppendUint64(nil, v))
				case 2:
					a, v := addrIn(1), byte(rng.Intn(256))
					op = fmt.Sprintf("PokeByte(%#x)", a)
					m.PokeByte(a, v)
					ref.write(a, []byte{v})
				case 3:
					n := 1 + rng.Intn(2*RowBytes)
					a, b := addrIn(n), randBytes(n)
					op = fmt.Sprintf("PokeBytes(%#x, %d)", a, n)
					m.PokeBytes(a, b)
					ref.write(a, b)
				case 4:
					n := 1 + rng.Intn(2*RowBytes)
					a := addrIn(n)
					op = fmt.Sprintf("ZeroBytes(%#x, %d)", a, n)
					m.ZeroBytes(a, n)
					ref.write(a, make([]byte, n))
				case 5:
					row, n := row0+rng.Intn(rows), rng.Intn(F64PerRow+1)
					op = fmt.Sprintf("FlushRowF64s(%d, %d)", row, n)
					s := m.RowF64s(row)
					for e := 0; e < n; e++ {
						if rng.Intn(2) == 0 {
							s[e] = rng.Uint64()
						}
					}
					m.FlushRowF64s(row, s, n)
					for e := 0; e < n; e++ {
						binary.LittleEndian.PutUint64(ref.data[RowAddr(row)-ref.base+8*e:], s[e])
					}
					ref.repar(RowAddr(row), 8*n)
				case 6:
					row, n := row0+rng.Intn(rows), rng.Intn(F32PerRow+1)
					op = fmt.Sprintf("FlushRowF32s(%d, %d)", row, n)
					s := m.RowF32s(row)
					for e := 0; e < n; e++ {
						if rng.Intn(2) == 0 {
							s[e] = rng.Uint32()
						}
					}
					m.FlushRowF32s(row, s, n)
					for e := 0; e < n; e++ {
						binary.LittleEndian.PutUint32(ref.data[RowAddr(row)-ref.base+4*e:], s[e])
					}
					ref.repar(RowAddr(row), 4*n)
				case 7:
					row := row0 + rng.Intn(rows)
					op = fmt.Sprintf("StoreRow(%d)", row)
					copy(reg.Bytes(), randBytes(RowBytes))
					if err := m.StoreRow(p, row, &reg); err != nil {
						failed = fmt.Errorf("StoreRow(%d): %v", row, err)
						return
					}
					ref.write(RowAddr(row), reg.Bytes())
				case 8:
					dst, src := row0+rng.Intn(rows), row0+rng.Intn(rows)
					op = fmt.Sprintf("MoveRow(%d, %d)", dst, src)
					err := m.MoveRow(p, dst, src, &reg)
					if failed = checkErr(op, err, ref.firstBad(RowAddr(src), RowBytes)); failed != nil {
						return
					}
					if err == nil {
						ref.write(RowAddr(dst), reg.Bytes())
					}
				default:
					a, bit := addrIn(1), uint(rng.Intn(8))
					op = fmt.Sprintf("FlipBit(%#x, %d)", a, bit)
					m.FlipBit(a, bit)
					ref.data[a-ref.base] ^= 1 << bit
					lastFlip = a
				}
				failed = checkReads(p, m, ref, rng, lastFlip)
				if failed != nil {
					failed = fmt.Errorf("step %d, after %s: %v", i, op, failed)
				}
			}
		})
		k.Run(0)
		if failed != nil {
			t.Fatalf("seed %d: %v", seed, failed)
		}
	}
}

// checkReads runs each kind of validated read over the window and
// compares it, and the window's contents, with the reference.
func checkReads(p *sim.Proc, m *Memory, ref *parityRef, rng *rand.Rand, lastFlip int) error {
	end := ref.base + len(ref.data)
	// Half the word and element reads land on the last flipped byte.
	a := ref.base + rng.Intn(end-ref.base)
	if rng.Intn(2) == 0 {
		a = lastFlip
	}
	w := a / 4
	_, err := m.ReadWord(p, w)
	if err := checkErr(fmt.Sprintf("ReadWord(%#x)", 4*w), err, ref.firstBad(4*w, 4)); err != nil {
		return err
	}
	e := a / 8
	_, err = m.Read64(p, e)
	if err := checkErr(fmt.Sprintf("Read64(%#x)", 8*e), err, ref.firstBad(8*e, 8)); err != nil {
		return err
	}
	var reg VectorReg
	row := ref.base/RowBytes + rng.Intn((end-ref.base)/RowBytes)
	err = m.LoadRow(p, row, &reg)
	if err := checkErr(fmt.Sprintf("LoadRow(%d)", row), err, ref.firstBad(RowAddr(row), RowBytes)); err != nil {
		return err
	}
	if err == nil && !bytes.Equal(reg.Bytes(), ref.data[RowAddr(row)-ref.base:][:RowBytes]) {
		return fmt.Errorf("LoadRow(%d) contents differ", row)
	}
	lo := ref.base + rng.Intn(end-ref.base)
	n := 1 + rng.Intn(end-lo)
	if err := checkErr(fmt.Sprintf("validateRange(%#x, %d)", lo, n), m.validateRange(lo, n), ref.firstBad(lo, n)); err != nil {
		return err
	}
	if !bytes.Equal(m.PeekBytes(ref.base, end-ref.base), ref.data) {
		return errors.New("contents differ")
	}
	return nil
}
