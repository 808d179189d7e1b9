// Package frontend models the host computer attached to a T Series: the
// machine has no operating system of its own — a front end loads code
// and data into node memories through each module's system board (§III:
// the system board "provides input/output and management functions"),
// starts the control processors, and collects results the same way.
//
// Because every module is identical and has identical connections, the
// front end treats any size machine uniformly — the paper's homogeneity
// argument applied to system management. It obeys the machine's shard
// ownership rule: every step that touches a module's nodes runs in a
// process on that module's shard (machine.EachModule), results that
// several modules produce land in per-node slots, and the process that
// calls LoadAll, RunAll or Collect runs on shard 0, where the fan-outs
// join.
package frontend

import (
	"encoding/binary"

	"tseries/internal/machine"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// Well-known addresses of the boot protocol.
const (
	// BootCodeBase is where the front end loads each node's program.
	BootCodeBase = 0x10000
	// BootWorkspace is each program's initial workspace (word index).
	BootWorkspace = 0x8000
	// NodeIDWord is the word where the front end writes the node's cube
	// address before starting it, so SPMD programs can branch on it.
	NodeIDWord = 0x7F00
	// NodesWord holds the total node count.
	NodesWord = 0x7F01
)

// FrontEnd drives one machine.
type FrontEnd struct {
	M *machine.Machine
}

// New attaches a front end to a machine.
func New(m *machine.Machine) *FrontEnd { return &FrontEnd{M: m} }

// LoadAll streams the same program image into every node's memory at
// BootCodeBase, all modules in parallel (each through its own system
// board, from a process on that module's shard), and writes each node's
// identity words. It blocks p, which must run on shard 0 (the machine's
// K), until every node is loaded.
func (f *FrontEnd) LoadAll(p *sim.Proc, code []byte) error {
	nodes := len(f.M.Nodes)
	return f.M.EachModule(p, "frontend/load", func(lp *sim.Proc, mod *module.Module) error {
		for local, nd := range mod.Nodes {
			if err := mod.LoadNodeMemory(lp, local, BootCodeBase, code); err != nil {
				return err
			}
			ident := make([]byte, 8)
			binary.LittleEndian.PutUint32(ident[0:], uint32(nd.ID))
			binary.LittleEndian.PutUint32(ident[4:], uint32(nodes))
			if err := mod.LoadNodeMemory(lp, local, NodeIDWord*4, ident); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunAll boots every control processor at BootCodeBase and blocks p
// until all of them have halted. Each module's processors are started
// and joined by a process on that module's shard, since a process may
// only spawn and wait on processes of its own shard.
func (f *FrontEnd) RunAll(p *sim.Proc) {
	_ = f.M.EachModule(p, "frontend/run", func(rp *sim.Proc, mod *module.Module) error {
		procs := make([]*sim.Proc, len(mod.Nodes))
		for i, nd := range mod.Nodes {
			procs[i] = nd.CP.Go(BootCodeBase, BootWorkspace)
		}
		for _, pr := range procs {
			rp.Join(pr)
		}
		return nil
	})
}

// Collect dumps n bytes from the given byte offset of every node, via
// the system boards, modules in parallel. Each module's process fills
// only its own nodes' slots of the result.
func (f *FrontEnd) Collect(p *sim.Proc, off, n int) ([][]byte, error) {
	out := make([][]byte, len(f.M.Nodes))
	err := f.M.EachModule(p, "frontend/collect", func(cp *sim.Proc, mod *module.Module) error {
		for local, nd := range mod.Nodes {
			data, err := mod.DumpNodeMemory(cp, local, off, n)
			if err != nil {
				return err
			}
			out[nd.ID] = data
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
