// Package fpu models the T Series node's vector arithmetic unit: a
// six-stage pipelined floating-point adder and a five-stage (32-bit) or
// seven-stage (64-bit) pipelined multiplier, each producing one result per
// 125 ns cycle, supervised by a preprogrammed micro-sequencer that
// implements a fixed collection of "vector forms" (SAXPY, vector add,
// vector multiply, dot product, sums, conversions, …).
//
// The programmer describes only the input and output vectors and the form
// desired; the unit runs in parallel with the control processor and
// interrupts it on completion or error. Scalars can be held in the input
// registers of each functional unit, and outputs can feed back as inputs
// for reductions — all per §II "Arithmetic" of the paper.
package fpu

// Precision selects 32- or 64-bit mode for a vector form.
type Precision int

// The two operand widths.
const (
	P32 Precision = iota
	P64
)

func (p Precision) String() string {
	if p == P32 {
		return "32-bit"
	}
	return "64-bit"
}

// Pipe is one pipelined functional unit. Only its depth (start-up
// latency) and issue rate matter for timing; element values are computed
// by fparith when results retire.
type Pipe struct {
	Name    string
	depth32 int
	depth64 int

	// Results retired, for utilisation accounting.
	Results int64
}

// NewAdder returns the six-stage floating-point adder (six stages in both
// precisions; it also performs comparisons and data conversions).
func NewAdder() *Pipe { return &Pipe{Name: "adder", depth32: 6, depth64: 6} }

// NewMultiplier returns the multiplier: five stages in 32-bit mode, seven
// in 64-bit mode.
func NewMultiplier() *Pipe { return &Pipe{Name: "multiplier", depth32: 5, depth64: 7} }

// Depth reports the pipeline length for the given precision.
func (pp *Pipe) Depth(prec Precision) int {
	if prec == P32 {
		return pp.depth32
	}
	return pp.depth64
}
