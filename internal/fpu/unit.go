package fpu

import (
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Op describes one vector-form invocation: the programmer names the form,
// the operand vectors (memory row numbers — vectors are aligned on
// 1024-byte boundaries, 128 elements in 64-bit mode, 256 in 32-bit mode),
// an optional scalar for the functional-unit input registers, and the
// element count.
type Op struct {
	Form Form
	Prec Precision
	X    int         // operand vector: row number
	Y    int         // second operand vector (forms that use Y)
	Z    int         // result vector (forms that write one)
	N    int         // element count; 0 means the full row
	A    fparith.F64 // scalar input register (narrowed in 32-bit mode)
}

// Status is the condition code the unit presents when it interrupts the
// control processor.
type Status struct {
	Invalid  bool // some element produced a NaN
	Overflow bool // some element overflowed to ±Inf
}

// Result is delivered on completion of a vector form.
type Result struct {
	Scalar  fparith.F64 // reduction result (Dot, Sum, VMax, VMin)
	Status  Status
	Elapsed sim.Duration // simulated busy time of the unit
	Flops   int          // floating-point operations performed
}

// Unit is the node's complete arithmetic unit: adder + multiplier +
// interconnection and sequencing hardware. It operates in parallel with
// the control processor, interrupting only on completion or error.
type Unit struct {
	mem  *memory.Memory
	k    *sim.Kernel
	name string

	Adder      *Pipe
	Multiplier *Pipe

	busy *sim.Resource // one vector form at a time

	// Aggregate counters for the MFLOPS experiments.
	FlopsDone int64
	BusyTime  sim.Duration

	// SingleBankMode, when set, models the ablation in which memory is
	// one bank: dyadic operand streams always share a port, halving the
	// streaming rate.
	SingleBankMode bool
}

// New builds the arithmetic unit of one node over its memory.
func New(k *sim.Kernel, name string, mem *memory.Memory) *Unit {
	return &Unit{
		mem:        mem,
		k:          k,
		name:       name,
		Adder:      NewAdder(),
		Multiplier: NewMultiplier(),
		busy:       sim.NewResource(k, name+"/fpu", 1),
	}
}

// ElemsPerRow reports the vector length for a precision (128 or 256).
func ElemsPerRow(prec Precision) int {
	if prec == P64 {
		return memory.F64PerRow
	}
	return memory.F32PerRow
}

// fill reports the start-up latency in cycles for a form: chained forms
// fill both pipelines before the first result retires.
func (u *Unit) fill(f Form, prec Precision) int {
	d := 0
	if f.usesMultiplier() {
		d += u.Multiplier.Depth(prec)
	}
	if f.usesAdder() {
		d += u.Adder.Depth(prec)
	}
	return d
}

// Run executes a vector form, blocking the calling process for its full
// duration (load row buffers, stream, drain, store). The control
// processor typically calls Start instead and overlaps its own work.
func (u *Unit) Run(p *sim.Proc, op Op) (Result, error) {
	if err := u.validate(&op); err != nil {
		return Result{}, err
	}
	u.busy.Acquire(p)
	defer u.busy.Release()
	start := p.Now()

	dyadic := op.Form.usesY()
	bankX := memory.BankOf(op.X)
	sameBank := false
	if dyadic {
		sameBank = memory.BankOf(op.Y) == bankX
	}
	if u.SingleBankMode {
		sameBank = dyadic
	}

	// Phase 1: fill the row buffers. Loads from different banks proceed
	// in parallel; a shared bank serialises them.
	loadTime := sim.RowAccess
	if dyadic && sameBank {
		loadTime = 2 * sim.RowAccess
	}
	// Hold the operand bank ports for the load plus the streaming phase:
	// operand elements stream from the banks through the row buffers. A
	// fixed pair keeps a two-bank form from allocating.
	ports := [2]*sim.Resource{u.mem.BankPort(bankX)}
	if dyadic && memory.BankOf(op.Y) != bankX {
		ports[1] = u.mem.BankPort(memory.BankOf(op.Y))
	}
	for _, r := range ports {
		if r != nil {
			r.Acquire(p)
		}
	}
	// Release the bank ports even if this process is killed mid-stream
	// (recovery rollback), so survivors don't deadlock on a leaked port.
	released := false
	releasePorts := func() {
		if released {
			return
		}
		released = true
		for _, r := range ports {
			if r != nil {
				r.Release()
			}
		}
	}
	defer releasePorts()

	// Phase 2: stream N elements; one result per cycle with two banks
	// feeding, one result per two cycles when both streams share a bank.
	rate := 1
	if sameBank {
		rate = 2
	}
	fill := u.fill(op.Form, op.Prec)
	streamCycles := fill + op.N*rate
	// Reductions drain their feedback accumulators: the adder holds
	// depth partial results which are then combined pairwise through the
	// pipeline, costing about depth sequential passes.
	if op.Form.reduction() {
		d := u.Adder.Depth(op.Prec)
		streamCycles += (d - 1) * d
	}
	p.Wait(loadTime + sim.Duration(streamCycles)*sim.Cycle)
	releasePorts()

	// Phase 3: compute the element values functionally and store the
	// result row (results shifted out of the unit into a bank).
	res, err := u.compute(op)
	if err != nil {
		return res, err
	}
	if op.Form.writesZ() {
		u.mem.BankPort(memory.BankOf(op.Z)).Use(p, sim.RowAccess)
	}

	res.Elapsed = p.Now().Sub(start)
	u.BusyTime += res.Elapsed
	u.FlopsDone += int64(res.Flops)
	u.Adder.Results += int64(boolInt(op.Form.usesAdder()) * op.N)
	u.Multiplier.Results += int64(boolInt(op.Form.usesMultiplier()) * op.N)
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Pending represents a vector form running asynchronously while the
// control processor does other work (§II: "This frees the control
// processor for other tasks while vector operations are being executed").
type Pending struct {
	res  Result
	err  error
	done *sim.Chan
}

// Start launches a vector form on the unit's own simulated process and
// returns immediately. The unit "interrupts" the controller through the
// Pending's completion channel.
func (u *Unit) Start(op Op) *Pending {
	pd := &Pending{done: sim.NewChan(u.k, u.name+"/fpu-done", 1)}
	u.k.Go(u.name+"/fpu-seq", func(p *sim.Proc) {
		pd.res, pd.err = u.Run(p, op)
		pd.done.Send(p, struct{}{})
	})
	return pd
}

// Wait blocks the calling process until the vector form completes and
// returns its result — the completion interrupt.
func (pd *Pending) Wait(p *sim.Proc) (Result, error) {
	pd.done.Recv(p)
	return pd.res, pd.err
}

func (u *Unit) validate(op *Op) error {
	max := ElemsPerRow(op.Prec)
	if op.N == 0 {
		op.N = max
	}
	if op.N < 0 || op.N > max {
		return fmt.Errorf("fpu: element count %d out of range (max %d in %v mode)", op.N, max, op.Prec)
	}
	check := func(what string, row int) error {
		if row < 0 || row >= memory.NumRows {
			return fmt.Errorf("fpu: %s row %d out of range", what, row)
		}
		return nil
	}
	if err := check("X", op.X); err != nil {
		return err
	}
	if op.Form.usesY() {
		if err := check("Y", op.Y); err != nil {
			return err
		}
	}
	if op.Form.writesZ() {
		if err := check("Z", op.Z); err != nil {
			return err
		}
	}
	return nil
}
