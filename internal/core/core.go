// Package core is the top of the simulator: a facade that assembles a
// complete T Series system (nodes, hypercube, modules, ring, disks) and
// the experiment harness that regenerates every quantitative claim and
// figure of the paper.
package core

import (
	"context"
	"fmt"

	"tseries/internal/comm"
	"tseries/internal/machine"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/occam"
	"tseries/internal/sim"
)

// System is a runnable T Series configuration plus its simulation clock.
// K is shard 0's kernel — module 0's shard, and the only shard of a
// single-module system.
type System struct {
	K *sim.Kernel
	M *machine.Machine
}

// NewSystem builds a 2^dim-node machine, one shard per module, executed
// by one host worker.
func NewSystem(dim int) (*System, error) {
	m, err := machine.NewAuto(context.Background(), dim, 1)
	if err != nil {
		return nil, err
	}
	return &System{K: m.K, M: m}, nil
}

// Spec derives the configuration table row for any dimension (no
// instantiation required).
func Spec(dim int) (machine.Spec, error) { return machine.SpecFor(dim) }

// Nodes reports the node count.
func (s *System) Nodes() int { return len(s.M.Nodes) }

// Node returns processor i.
func (s *System) Node(i int) *node.Node { return s.M.Nodes[i] }

// Endpoint returns node i's message-passing interface.
func (s *System) Endpoint(i int) *comm.Endpoint { return s.M.Endpoint(i) }

// Modules returns the machine's modules.
func (s *System) Modules() []*module.Module { return s.M.Modules }

// Go spawns a host-written program as a simulated process on shard 0.
// Shard ownership rule: a process that touches a node must run on that
// node's shard. On a single-module system every node is on shard 0;
// on a larger one, a program that touches nodes of other modules must
// be split into per-node processes (GoNode), with results that several
// of them produce kept in per-node slots.
func (s *System) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return s.K.Go(name, fn)
}

// GoNode spawns fn as a process on node id's shard.
func (s *System) GoNode(id int, name string, fn func(p *sim.Proc)) *sim.Proc {
	return s.M.GoNode(id, name, fn)
}

// Run drives the simulation until idle (or for the given horizon) and
// returns the simulated clock.
func (s *System) Run(horizon sim.Duration) sim.Time { return s.M.Run(horizon) }

// SPMD runs fn as one process per node, each on its node's shard (the
// usual single-program multiple-data pattern), drives the simulation to
// completion, and returns the elapsed simulated time.
func (s *System) SPMD(fn func(p *sim.Proc, e *comm.Endpoint)) sim.Duration {
	start := s.M.Group.Now()
	for i := 0; i < s.Nodes(); i++ {
		e := s.Endpoint(i)
		s.GoNode(i, fmt.Sprintf("spmd/n%d", i), func(p *sim.Proc) { fn(p, e) })
	}
	return s.Run(0).Sub(start)
}

// Checkpoint snapshots every module in parallel, each on its own shard;
// p must run on shard 0 (s.Go spawns there).
func (s *System) Checkpoint(p *sim.Proc) ([]*module.Snapshot, error) {
	return s.M.SnapshotAll(p)
}

// Restore rewinds every module to the given snapshots.
func (s *System) Restore(p *sim.Proc, snaps []*module.Snapshot) error {
	return s.M.RestoreAll(p, snaps)
}

// RunOccam parses src and starts PROC procName on node nodeID, on that
// node's shard; the caller then drives s.Run. Channel arguments may be
// *sim.Chan, occam.Channel, or sublinks wrapped with occam.WrapSublink,
// and must belong to the node's shard.
func (s *System) RunOccam(nodeID int, src, procName string, args ...interface{}) (*occam.Interp, error) {
	prog, err := occam.Parse(src)
	if err != nil {
		return nil, err
	}
	ip := occam.New(s.Node(nodeID).K, prog, s.Node(nodeID))
	if _, err := ip.Start(procName, args...); err != nil {
		return nil, err
	}
	return ip, nil
}
