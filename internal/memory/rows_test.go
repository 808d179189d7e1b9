package memory

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

func TestRowViewReflectsPokes(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	const row = 12
	for i := 0; i < F64PerRow; i++ {
		m.PokeF64(row*F64PerRow+i, fparith.FromFloat64(float64(i)*1.25))
	}
	v64 := m.RowF64s(row)
	if len(v64) != F64PerRow {
		t.Fatalf("RowF64s length = %d, want %d", len(v64), F64PerRow)
	}
	for i := range v64 {
		if got, want := v64[i], uint64(fparith.FromFloat64(float64(i)*1.25)); got != want {
			t.Fatalf("v64[%d] = %#x, want %#x", i, got, want)
		}
	}
	v32 := m.RowF32s(row)
	if len(v32) != F32PerRow {
		t.Fatalf("RowF32s length = %d, want %d", len(v32), F32PerRow)
	}
	for i := 0; i < F64PerRow; i++ {
		if got := uint64(v32[2*i]) | uint64(v32[2*i+1])<<32; got != v64[i] {
			t.Fatalf("32/64 view mismatch at element %d: %#x vs %#x", i, got, v64[i])
		}
	}
}

func TestRowViewFlushRestoresParity(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	const row = 7
	s := m.RowF64s(row)
	for i := range s {
		s[i] = uint64(fparith.FromFloat64(float64(i) + 0.5))
	}
	m.FlushRowF64s(row, s, F64PerRow)
	// Element reads must see the flushed values.
	for i := 0; i < F64PerRow; i++ {
		if got, want := m.PeekF64(row*F64PerRow+i), fparith.FromFloat64(float64(i)+0.5); got != want {
			t.Fatalf("element %d = %#x, want %#x", i, uint64(got), uint64(want))
		}
	}
	// Parity must be consistent: a row load after a fault elsewhere
	// validates every byte of this row.
	m.FlipBit(RowAddr(row+1), 0) // fault in a different row arms validation
	var reg VectorReg
	k.Go("cp", func(p *sim.Proc) {
		if err := m.LoadRow(p, row, &reg); err != nil {
			t.Errorf("LoadRow after flush: %v", err)
		}
	})
	k.Run(0)
}

func TestRowViewPartialFlushKeepsFaultDetectable(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	const row = 3
	// Corrupt a byte in the second half of the row.
	badAddr := RowAddr(row) + 700
	m.FlipBit(badAddr, 2)
	// Write through a view and flush only the first 16 elements
	// (128 bytes): the pending fault at byte 700 is outside the flushed
	// prefix and must still be detected by the next row load.
	s := m.RowF64s(row)
	for i := 0; i < 16; i++ {
		s[i] = uint64(fparith.FromFloat64(float64(i)))
	}
	m.FlushRowF64s(row, s, 16)
	var reg VectorReg
	k.Go("cp", func(p *sim.Proc) {
		err := m.LoadRow(p, row, &reg)
		pe, ok := err.(*ParityError)
		if !ok {
			t.Errorf("LoadRow = %v, want ParityError", err)
			return
		}
		if pe.Addr != badAddr {
			t.Errorf("ParityError at %#x, want %#x", pe.Addr, badAddr)
		}
	})
	k.Run(0)
}

func TestRowViewF32FlushRestoresParity(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, "n0")
	const row = 500
	s := m.RowF32s(row)
	for i := range s {
		s[i] = uint32(fparith.FromFloat32(float32(i) * 0.5))
	}
	m.FlushRowF32s(row, s, F32PerRow)
	for i := 0; i < F32PerRow; i++ {
		if got, want := m.PeekF32(row*F32PerRow+i), fparith.FromFloat32(float32(i)*0.5); got != want {
			t.Fatalf("element %d = %#x, want %#x", i, uint32(got), uint32(want))
		}
	}
	m.FlipBit(0, 0)
	var reg VectorReg
	k.Go("cp", func(p *sim.Proc) {
		if err := m.LoadRow(p, row, &reg); err != nil {
			t.Errorf("LoadRow after flush: %v", err)
		}
	})
	k.Run(0)
}

// TestNoPerByteParityScans guards the datapath: the memory package
// must not reintroduce per-byte parity maintenance (the old
// setParity/checkParity helpers, or byte-granular loops over whole
// rows). Parity is a fault ledger (parity.go) that no write
// recomputes, so non-test code needs no bit counting; the OnesCount8
// check below is a ceiling of one.
func TestNoPerByteParityScans(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`setParity|checkParity`)
	perByteLoop := regexp.MustCompile(`for\s+\w+\s*:=\s*0;\s*\w+\s*<\s*RowBytes;`)
	onesCount := regexp.MustCompile(`OnesCount8`)
	totalOnesCount := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := banned.Find(src); loc != nil {
			t.Errorf("%s: legacy per-byte parity helper %q present", f, loc)
		}
		if perByteLoop.Match(src) {
			t.Errorf("%s: per-byte loop over RowBytes — use refreshParity/validateRange", f)
		}
		totalOnesCount += len(onesCount.FindAll(src, -1))
	}
	if totalOnesCount > 1 {
		t.Errorf("OnesCount8 used %d times; only PokeByte's single-byte update may use it", totalOnesCount)
	}
}
