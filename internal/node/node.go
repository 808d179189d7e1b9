// Package node assembles one T Series processor node — the single-board
// computer of Figure 1: a control processor, 1 MB of dual-ported memory,
// the pipelined vector arithmetic unit, and four serial communication
// links (sixteen sublinks).
//
// Peak node performance is 16 MFLOPS (one adder result and one multiplier
// result per 125 ns); the paper's balance ratios between arithmetic,
// gather/scatter, and link transfer are directly measurable on this
// model.
package node

import (
	"fmt"

	"tseries/internal/cp"
	"tseries/internal/fpu"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// PeakMFLOPS is the paper's headline per-node figure.
const PeakMFLOPS = 16

// Node is one processor board.
type Node struct {
	ID   int
	Name string

	K     *sim.Kernel
	Mem   *memory.Memory
	CP    *cp.CPU
	FPU   *fpu.Unit
	Links [link.LinksPerNode]*link.Link

	crashed bool
}

// Crash takes the node out of service: every sublink stops driving and
// acknowledging, so peers see timeouts instead of silence. The caller
// (the fault injector) is responsible for killing the node's processes.
func (n *Node) Crash() {
	n.crashed = true
	for _, l := range n.Links {
		l.SetDown(true)
	}
}

// Repair returns a crashed node to service with its links restored.
func (n *Node) Repair() {
	n.crashed = false
	for _, l := range n.Links {
		l.SetDown(false)
	}
}

// Alive reports whether the node is in service.
func (n *Node) Alive() bool { return !n.crashed }

// New builds a node with all units wired together.
func New(k *sim.Kernel, id int) *Node {
	name := fmt.Sprintf("n%d", id)
	n := &Node{ID: id, Name: name, K: k}
	n.Mem = memory.New(k, name)
	n.FPU = fpu.New(k, name, n.Mem)
	n.CP = cp.New(k, name, n.Mem)
	n.CP.FPU = n.FPU
	for i := range n.Links {
		n.Links[i] = link.NewLink(k, fmt.Sprintf("%s/link%d", name, i))
		n.CP.Links[i] = n.Links[i]
	}
	return n
}

// Sublink returns logical channel i (0..15): link i/4, sublink i%4.
func (n *Node) Sublink(i int) *link.Sublink {
	return n.Links[i/link.SublinksPerLink].Sublink(i % link.SublinksPerLink)
}

// RunForm executes a vector form synchronously on the node's unit.
func (n *Node) RunForm(p *sim.Proc, op fpu.Op) (fpu.Result, error) {
	return n.FPU.Run(p, op)
}

// BalanceRatio measures the paper's §II ratio
// (arithmetic time) : (gather time) : (link transfer time)
// for one 64-bit word, in units of the arithmetic time.
func BalanceRatio() (arith, gather, xfer float64) {
	a := sim.Cycle.Seconds()
	g := cp.GatherTime64(1).Seconds()
	// Link time for one 64-bit word in a streaming (startup-amortised)
	// transfer.
	l := (8 * link.ByteTime).Seconds()
	return 1, g / a, l / a
}
