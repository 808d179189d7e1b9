// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every timed component of the T Series simulator: node
// cycles, memory ports, link bit times, disk transfers. Processes are
// goroutines that run one at a time under the kernel's control, so the
// simulation is fully deterministic and race-free by construction even
// though process bodies read like straight-line sequential code.
//
// Time is kept in integer picoseconds so that the machine's awkward
// sub-nanosecond periods (62.5 ns vector half-cycles) are exact.
package sim

import "fmt"

// Time is a simulated instant, measured in picoseconds from the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations, in simulated picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Machine-wide periods from the paper.
const (
	// Cycle is the node's arithmetic cycle: one 64-bit result per
	// functional unit every 125 ns.
	Cycle = 125 * Nanosecond
	// HalfCycle is the 32-bit element period of a vector register port
	// (one 32-bit word every 62.5 ns).
	HalfCycle = Cycle / 2
	// WordAccess is the control processor's random-access memory port
	// time for one 32-bit word.
	WordAccess = 400 * Nanosecond
	// RowAccess is the time to move an entire 1024-byte memory row to or
	// from a vector register.
	RowAccess = 400 * Nanosecond
)

// Nanoseconds reports d as a floating-point count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds reports d as a floating-point count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as a floating-point count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an appropriate unit.
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return fmt.Sprintf("%ds", d/Second)
	case d >= Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.6gµs", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.6gns", d.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }
