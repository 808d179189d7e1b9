package cp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// rig builds a kernel, memory and CPU. Programs load at codeBase; the
// workspace grows downward from wsBase.
const (
	codeBase = 0x10000
	wsBase   = 0x8000 // word index
)

func rig() (*sim.Kernel, *memory.Memory, *CPU) {
	k := sim.NewKernel()
	m := memory.New(k, "n0")
	c := New(k, "n0", m)
	return k, m, c
}

// runProg assembles and runs src to completion, returning the CPU.
func runProg(t *testing.T, src string) (*memory.Memory, *CPU) {
	t.Helper()
	k, m, c := rig()
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c.LoadProgram(codeBase, code)
	k.Go("cp", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	k.Run(0)
	return m, c
}

func TestEncodeDecodeOperands(t *testing.T) {
	f := func(v int32) bool {
		enc := encodeInstr(FnLdc, int(v))
		// Decode the pfix/nfix chain.
		oreg := int32(0)
		for _, b := range enc {
			oreg |= int32(b & 15)
			switch b >> 4 {
			case FnPfix:
				oreg <<= 4
			case FnNfix:
				oreg = (^oreg) << 4
			case FnLdc:
				return oreg == v
			default:
				return false
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 15, 16, -1, -16, -17, 1 << 20, -(1 << 20)} {
		if !f(int32(v)) {
			t.Fatalf("roundtrip failed for %d", v)
		}
	}
}

func TestArithmetic(t *testing.T) {
	m, c := runProg(t, `
		ldc 21
		ldc 2
		mul
		stl 0      ; 42
		ldc 100
		ldc 58
		sub
		stl 1      ; 42
		ldc 7
		ldc 3
		div
		stl 2      ; 2 (pops give 7/3)
		stopp
	`)
	if got := int32(m.PeekWord(wsBase + 0)); got != 42 {
		t.Fatalf("mul result = %d", got)
	}
	if got := int32(m.PeekWord(wsBase + 1)); got != 42 {
		t.Fatalf("sub result = %d", got)
	}
	if got := int32(m.PeekWord(wsBase + 2)); got != 7/3 {
		t.Fatalf("div result = %d", got)
	}
	if c.Err {
		t.Fatal("error flag set")
	}
}

func TestNegativeConstantsAndAdc(t *testing.T) {
	m, _ := runProg(t, `
		ldc -1000
		adc 1
		stl 0
		stopp
	`)
	if got := int32(m.PeekWord(wsBase)); got != -999 {
		t.Fatalf("got %d, want -999", got)
	}
}

func TestLoopCountdown(t *testing.T) {
	// Sum 1..10 with a cj loop.
	m, _ := runProg(t, `
		ldc 10
		stl 0       ; i = 10
		ldc 0
		stl 1       ; acc = 0
	loop:
		ldl 1
		ldl 0
		add
		stl 1       ; acc += i
		ldl 0
		adc -1
		stl 0       ; i--
		ldl 0
		cj done
		j loop
	done:
		stopp
	`)
	if got := int32(m.PeekWord(wsBase + 1)); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestCallRet(t *testing.T) {
	// call saves Iptr,A,B,C at the new workspace; the callee reads its
	// argument from the saved-Areg slot (Wptr+1), computes, and returns
	// with the result in Areg (ret restores only Iptr).
	m, c := runProg(t, `
		ldc 5
		call fn
		stl 0
		stopp
	fn:
		ldl 1       ; saved Areg = 5
		adc 10
		ret
	`)
	if !c.Halted {
		t.Fatal("program did not halt")
	}
	if got := int32(m.PeekWord(wsBase)); got != 15 {
		t.Fatalf("call result = %d, want 15", got)
	}
}

func TestEqcAndCj(t *testing.T) {
	m, _ := runProg(t, `
		ldc 7
		eqc 7
		cj notseven
		ldc 1
		stl 0
		stopp
	notseven:
		ldc 0
		stl 0
		stopp
	`)
	// eqc 7 on 7 gives 1 (true) → cj does NOT jump (pops nonzero).
	if got := int32(m.PeekWord(wsBase)); got != 1 {
		t.Fatalf("eqc path = %d, want 1", got)
	}
}

func TestOffChipAccessTimed(t *testing.T) {
	// ldnl/stnl consume 400 ns port time each; ldl/stl do not.
	k, m, c := rig()
	code, err := Assemble(`
		ldc 0x40000 ; byte address of word 0x10000
		ldnl 0
		stl 0
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	m.PokeWord(0x10000, 777)
	c.LoadProgram(codeBase, code)
	var end sim.Time
	k.Go("cp", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("run: %v", err)
		}
		end = p.Now()
	})
	k.Run(0)
	if got := int32(m.PeekWord(wsBase)); got != 777 {
		t.Fatalf("ldnl loaded %d", got)
	}
	// One timed word access (400ns) plus a handful of instruction ticks.
	if end < sim.Time(400*sim.Nanosecond) || end > sim.Time(2*sim.Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestInstructionRate(t *testing.T) {
	// A long pure-register loop must execute at ~7.5 MIPS.
	k, _, c := rig()
	code, err := Assemble(`
		ldc 10000
		stl 0
	loop:
		ldl 0
		adc -1
		stl 0
		ldl 0
		cj out
		j loop
	out:
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(codeBase, code)
	var n int64
	k.Go("cp", func(p *sim.Proc) {
		n, _ = c.Run(p, codeBase, wsBase)
	})
	end := k.Run(0)
	mips := float64(n) / sim.Duration(end).Seconds() / 1e6
	if mips < 7.0 || mips > 8.0 {
		t.Fatalf("instruction rate = %.2f MIPS, want ~7.5", mips)
	}
}

func TestDivByZeroSetsError(t *testing.T) {
	_, c := runProg(t, `
		ldc 1
		ldc 0
		div
		stl 0
		stopp
	`)
	if !c.Err {
		t.Fatal("error flag not set on /0")
	}
}

func TestTesterr(t *testing.T) {
	m, c := runProg(t, `
		seterr
		testerr
		stl 0
		testerr
		stl 1
		stopp
	`)
	if int32(m.PeekWord(wsBase)) != 1 || int32(m.PeekWord(wsBase+1)) != 0 {
		t.Fatal("testerr sequence wrong")
	}
	if c.Err {
		t.Fatal("testerr did not clear flag")
	}
}

func TestStartpConcurrency(t *testing.T) {
	// startp spawns a concurrent process; the parent spins until the
	// child writes a flag into the parent's workspace. Parent W=0x8000 so
	// its local 100 is word 0x8000+100; the child runs with W=0x9000 and
	// reaches the same word with stl -(0x1000-100) = stl -3996.
	m, _ := runProg(t, `
		org 0x10000
		ldc child
		ldc 0x9000
		startp
	wait:
		ldl 100
		cj wait
		stopp
	child:
		ldc 7
		stl -3996
		endp
	`)
	if got := int32(m.PeekWord(wsBase + 100)); got != 7 {
		t.Fatalf("child write = %d, want 7", got)
	}
}

func TestSoftChannels(t *testing.T) {
	// Two CP processes rendezvous over a registered soft channel.
	k, m, c := rig()
	ch := sim.NewChan(k, "soft", 0)
	c.RegisterChan(InternalChanBase, ch)
	// outword pops Areg=value then Breg=channel.
	prodSrc := `
		ldc 256      ; channel id → Breg after next push
		ldc 4242     ; value in Areg
		outword
		stopp
	`
	consSrc := `
		ldc 256
		inword
		stl 0
		stopp
	`
	prod, err := Assemble(prodSrc)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Assemble(consSrc)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(codeBase, prod)
	c.LoadProgram(codeBase+0x1000, cons)
	k.Go("prod", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("prod: %v", err)
		}
	})
	c2 := New(k, "n0b", m)
	c2.RegisterChan(InternalChanBase, ch)
	k.Go("cons", func(p *sim.Proc) {
		if _, err := c2.Run(p, codeBase+0x1000, wsBase+0x1000); err != nil {
			t.Errorf("cons: %v", err)
		}
	})
	k.Run(0)
	if got := int32(m.PeekWord(wsBase + 0x1000)); got != 4242 {
		t.Fatalf("channel word = %d, want 4242", got)
	}
}

func TestLinkOutIn(t *testing.T) {
	// Two CPUs on two nodes exchange a word over sublink 0 of link 0.
	k := sim.NewKernel()
	mA := memory.New(k, "a")
	mB := memory.New(k, "b")
	ca := New(k, "a", mA)
	cb := New(k, "b", mB)
	ca.Links[0] = link.NewLink(k, "a/l0")
	cb.Links[0] = link.NewLink(k, "b/l0")
	if err := link.Connect(ca.Links[0].Sublink(0), cb.Links[0].Sublink(0)); err != nil {
		t.Fatal(err)
	}
	tx, err := Assemble(`
		ldc 0
		ldc 31415
		outword
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := Assemble(`
		ldc 0
		inword
		stl 0
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	ca.LoadProgram(codeBase, tx)
	cb.LoadProgram(codeBase, rx)
	k.Go("a", func(p *sim.Proc) {
		if _, err := ca.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("a: %v", err)
		}
	})
	var rxDone sim.Time
	k.Go("b", func(p *sim.Proc) {
		if _, err := cb.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("b: %v", err)
		}
		rxDone = p.Now()
	})
	k.Run(0)
	if got := int32(mB.PeekWord(wsBase)); got != 31415 {
		t.Fatalf("received %d", got)
	}
	// 4-byte DMA transfer ≈ 5µs startup + 4×1.73µs.
	if rxDone < sim.Time(11*sim.Microsecond) || rxDone > sim.Time(14*sim.Microsecond) {
		t.Fatalf("link word took %v", rxDone)
	}
}

func TestVectorFormFromCP(t *testing.T) {
	// The CP triggers a SAXPY via a descriptor and waits for the
	// completion interrupt.
	k, m, c := rig()
	c.FPU = fpu.New(k, "n0", m)
	// Operands: X row 0 (bank A), Y row 300 (bank B), Z row 301.
	for i := 0; i < memory.F64PerRow; i++ {
		m.PokeF64(i, fparith.FromInt64(int64(i)))
		m.PokeF64(300*memory.F64PerRow+i, fparith.FromInt64(1000))
	}
	// Descriptor at byte 0x20000: form=SAXPY(3), prec=64, X=0, Y=300,
	// Z=301, N=0(full row), A=2.0.
	dw := 0x20000 / 4
	m.PokeWord(dw+0, uint32(fpu.SAXPY))
	m.PokeWord(dw+1, 64)
	m.PokeWord(dw+2, 0)
	m.PokeWord(dw+3, 300)
	m.PokeWord(dw+4, 301)
	m.PokeWord(dw+5, 0)
	two := uint64(fparith.FromFloat64(2))
	m.PokeWord(dw+6, uint32(two))
	m.PokeWord(dw+7, uint32(two>>32))
	code, err := Assemble(`
		ldc 0x20000
		vform
		vwait
		stl 0        ; status
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(codeBase, code)
	k.Go("cp", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	k.Run(0)
	if st := int32(m.PeekWord(wsBase)); st != 0 {
		t.Fatalf("vector status = %d", st)
	}
	for i := 0; i < memory.F64PerRow; i++ {
		want := 2*float64(i) + 1000
		if got := m.PeekF64(301*memory.F64PerRow + i).Float64(); got != want {
			t.Fatalf("z[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestGatherScatterTiming(t *testing.T) {
	// Gathering one 64-bit element costs 1.6 µs (two reads + two writes);
	// a 32-bit element costs 0.8 µs.
	k, m, c := rig()
	for i := 0; i < 1024; i++ {
		m.PokeF64(i*7%4096, fparith.FromInt64(int64(i)))
	}
	idx := make([]int, 128)
	for i := range idx {
		idx[i] = (i * 37) % 4096
	}
	var end sim.Time
	k.Go("cp", func(p *sim.Proc) {
		if err := c.Gather64(p, 64*128, idx); err != nil {
			t.Errorf("gather: %v", err)
		}
		end = p.Now()
	})
	k.Run(0)
	if end != sim.Time(GatherTime64(128)) {
		t.Fatalf("gather took %v, want %v", end, GatherTime64(128))
	}
	if GatherTime64(1) != 1600*sim.Nanosecond {
		t.Fatalf("per-element gather = %v, want 1.6µs", GatherTime64(1))
	}
	if GatherTime32(1) != 800*sim.Nanosecond {
		t.Fatalf("per-element gather32 = %v, want 0.8µs", GatherTime32(1))
	}
}

// TestScatter64 pins Scatter64: it moves consecutive 64-bit elements
// out to the given indices for four word accesses each (1.6 µs, as
// GatherTime64 charges), refuses an index outside the store, and stops
// at a source word that fails parity, with the port's ParityError.
func TestScatter64(t *testing.T) {
	const src, n = 64 * 128, 128
	k, m, c := rig()
	for i := 0; i < n; i++ {
		m.PokeF64(src+i, fparith.FromInt64(int64(i+1)))
	}
	dst := make([]int, n)
	for i := range dst {
		dst[i] = (i * 37) % 4096
	}
	var end sim.Time
	k.Go("cp", func(p *sim.Proc) {
		if err := c.Scatter64(p, src, dst); err != nil {
			t.Errorf("scatter: %v", err)
		}
		end = p.Now()
	})
	k.Run(0)
	if end != sim.Time(GatherTime64(n)) || GatherTime64(1) != 1600*sim.Nanosecond {
		t.Fatalf("scatter of %d elements took %v, want %v", n, end, GatherTime64(n))
	}
	for i, d := range dst {
		if got := m.PeekF64(d); got != fparith.FromInt64(int64(i+1)) {
			t.Fatalf("element %d at %d = %v, want %d", i, d, got.Float64(), i+1)
		}
	}

	const elems = memory.Bytes / 8
	for _, tc := range []struct {
		src int
		dst []int
	}{
		{0, []int{elems}},
		{0, []int{5, -1}},
		{elems - 1, []int{7, 8}}, // the second source element is past the store
	} {
		var err error
		k.Go("cp", func(p *sim.Proc) { err = c.Scatter64(p, tc.src, tc.dst) })
		k.Run(0)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Scatter64(%d, %v) = %v, want an out-of-range error", tc.src, tc.dst, err)
		}
	}

	// A flipped bit in the high word of source element 3.
	bad := (src+3)*8 + 5
	m.FlipBit(bad, 2)
	for _, d := range dst[3:] {
		m.PokeF64(d, 0)
	}
	var err error
	k.Go("cp", func(p *sim.Proc) { err = c.Scatter64(p, src, dst) })
	k.Run(0)
	var pe *memory.ParityError
	if !errors.As(err, &pe) || pe.Addr != bad || !c.Err {
		t.Fatalf("scatter from a flipped word: %v (error flag %v), want a ParityError at %#x", err, c.Err, bad)
	}
	if m.PeekF64(dst[3]) != 0 {
		t.Fatal("the element with the flipped word was scattered")
	}
}

func TestBlockMoveInstruction(t *testing.T) {
	k, m, c := rig()
	m.PokeWord(0xC000, 0xAABBCCDD)
	m.PokeWord(0xC001, 0x11223344)
	code, err := Assemble(`
		ldc 0x34000   ; dest byte address (Creg after two more pushes)
		ldc 0x30000   ; src byte address
		ldc 8         ; count
		move
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(codeBase, code)
	var end sim.Time
	k.Go("cp", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("run: %v", err)
		}
		end = p.Now()
	})
	k.Run(0)
	if m.PeekWord(0xD000) != 0xAABBCCDD || m.PeekWord(0xD001) != 0x11223344 {
		t.Fatal("block move contents wrong")
	}
	// 8 bytes = 2 words = 4 port accesses = 1.6µs, plus the long-operand
	// prefix chains of the address constants (~13 instruction ticks).
	if end < sim.Time(1600*sim.Nanosecond) || end > sim.Time(4*sim.Microsecond) {
		t.Fatalf("move took %v", end)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		ldc 1000
		stl 0
		ldc -5
		add
		stopp
	`
	code, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(code)
	for _, want := range []string{"ldc 1000", "stl 0", "ldc -5", "add", "stopp"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"bogus 1",
		"ldc",
		"add 3",
		"j nowhere",
		"x: ldc 1\nx: ldc 2",
	} {
		if _, err := Assemble(src); err == nil {
			t.Fatalf("assembled invalid source %q", src)
		}
	}
}

func TestFaultOnWildFetch(t *testing.T) {
	k, _, c := rig()
	code, _ := Assemble("j -200000") // jump far before memory start
	c.LoadProgram(codeBase, code)
	var err error
	k.Go("cp", func(p *sim.Proc) {
		_, err = c.Run(p, codeBase, wsBase)
	})
	k.Run(0)
	if err == nil {
		t.Fatal("wild jump did not fault")
	}
	if _, ok := err.(*Fault); !ok {
		t.Fatalf("err = %T", err)
	}
}

func TestRunRebootsAfterStopp(t *testing.T) {
	// stopp halts the CPU; a later Run must boot it again (regression:
	// the second program used to return immediately).
	k, m, c := rig()
	one, err := Assemble("ldc 1\nstl 0\nstopp\n")
	if err != nil {
		t.Fatal(err)
	}
	two, err := Assemble("ldc 2\nstl 1\nstopp\n")
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(codeBase, one)
	c.LoadProgram(codeBase+0x100, two)
	k.Go("cp", func(p *sim.Proc) {
		if _, err := c.Run(p, codeBase, wsBase); err != nil {
			t.Errorf("first: %v", err)
		}
		if _, err := c.Run(p, codeBase+0x100, wsBase); err != nil {
			t.Errorf("second: %v", err)
		}
	})
	k.Run(0)
	if int32(m.PeekWord(wsBase)) != 1 || int32(m.PeekWord(wsBase+1)) != 2 {
		t.Fatal("second program did not run after stopp")
	}
}

func TestRecursiveCall(t *testing.T) {
	// Recursive Fibonacci via call/ret and explicit workspace frames:
	// exercises nested calls, the saved-Areg argument slot, and ajw.
	m, c := runProg(t, `
		org 0x10000
		ldc 10
		call fib
		stl 0
		stopp
	; fib(n): argument in saved-Areg slot (Wptr+1) after call.
	; frame: local 1 holds A (arg), we use ajw for two temp slots.
	fib:
		ajw -2       ; two locals: 0 = n, 1 = fib(n-1)
		ldl 3        ; saved Areg is now at Wptr+2+1 = 3
		stl 0
		ldc 2
		ldl 0
		gt           ; 2 > n ?  (gt computes Breg > Areg)
		cj recurse
		ldl 0        ; base case: fib(n) = n for n < 2
		ajw 2
		ret
	recurse:
		ldl 0
		adc -1
		call fib
		stl 1        ; fib(n-1)
		ldl 0
		adc -2
		call fib
		ldl 1
		add
		ajw 2
		ret
	`)
	if got := int32(m.PeekWord(wsBase)); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
	if c.Err {
		t.Fatal("error flag set")
	}
}

func TestQuickAssembleDisassembleRoundTrip(t *testing.T) {
	// Property: assembling `ldc v` and disassembling recovers v exactly,
	// for operands across the full signed range.
	f := func(v int32) bool {
		code, err := Assemble("ldc " + itoa(int(v)) + "\nstopp\n")
		if err != nil {
			return false
		}
		dis := Disassemble(code)
		return strings.Contains(dis, "ldc "+itoa(int(v)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
