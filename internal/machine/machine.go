package machine

import (
	"context"
	"fmt"

	"tseries/internal/comm"
	"tseries/internal/fault"
	"tseries/internal/link"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// MaxSimDim caps how large a machine the simulator will actually
// instantiate. Node memory is sparse (rows materialize on first write,
// checkpoints dedup at row granularity), so footprint scales with the
// rows a workload touches rather than the configured store, and the
// paper's maximum usable configuration — the 12-cube, 4096 nodes —
// instantiates and runs on an ordinary host. Specifications beyond
// this derive from SpecFor without instantiation, exactly as the paper
// derives large-system properties from module properties.
const MaxSimDim = 12

// Machine is an instantiated, runnable T Series configuration.
//
// Module m is shard m. Every machine is a shard group with one shard
// per module: the eight nodes of module m (nodes 8m..8m+7) and its
// system board live on shard m's kernel, and every intermodule path —
// cabled hypercube sublinks and the system ring — crosses shards
// through staged edges whose latency, link.Lookahead, bounds the
// windows. The partition is fixed by the machine dimension, not by the
// host, so the event order is identical at every worker count; the
// worker count picks only how many host cores execute the shard set. A
// single-module machine is a one-shard group, which differs from a
// multi-module one in exactly four rules, each decided from the module
// count:
//
//  1. it has no cross-shard edge, so the group runs one unbounded
//     window;
//  2. it keeps no barrier-synced mirrors of remote state (no window
//     observer), and its comm topology view rebuilds on read whenever
//     one of its links changed, not at window barriers;
//  3. its fault plan is the single corruption stream on every link,
//     consumed in kernel order (ArmFaults);
//  4. it reports its kernel's own statistics (SimStats), so its reports
//     keep the single-kernel shape, with no Shards or Windows.
//
// Shard-ownership rules for the layers above the network:
//
//   - Anything owned by node/module X — its processes, memory, link
//     counters, mailboxes — is touched only from X's shard kernel. A
//     process that touches a node runs on that node's shard (GoNode),
//     and results that several shards produce go into per-node slots.
//   - Shard 0 (module 0's shard) is the control plane: the fan-out join
//     channel, the supervisor's alarm and ok channels, and the failure
//     detector's pass with its verdict channel all live there, and the
//     processes that join through them (EachModule's caller,
//     Supervisor.Run) must run there too. Every other shard reaches each
//     channel through one staged uplink edge.
//   - State that crosses shards without a message — spawn/kill of body
//     processes, snapshot aborts, remap walks, topology repair — runs
//     in ShardGroup.Global sections, which execute at window barriers
//     with every shard quiescent (inline on one shard).
//   - Reads of remote state from mid-window code go through
//     barrier-synced copies: the comm topology view (liveness/routing)
//     and the staged sublink outage mirrors. Both lag a mid-window
//     change by at most one window, which is deterministic for a fixed
//     partition. State a board can judge where it lives — its slots'
//     heartbeat ledger, its links' retransmit counters — is judged
//     there, and only the verdict crosses shards.
type Machine struct {
	Dim     int
	Spec    Spec
	Nodes   []*node.Node
	Modules []*module.Module
	Net     *comm.Network

	// Group executes one shard per module. K is shard 0's kernel, where
	// the control plane lives.
	Group *sim.ShardGroup
	K     *sim.Kernel

	ctl    *shard0Chan // fan-out join tokens
	ctlGen int64       // join generation; stale tokens are ignored

	changesSeen int64 // link change count the shard views were last synced at
	faults      *fault.Sharded
}

// shardOf reports the shard that owns node id: its module's.
func shardOf(id int) int { return id / module.NodesPerModule }

// NewAuto builds a 2^dim-node machine — nodes, hypercube network on
// sublinks 0..dim-1, modules of eight nodes with system threads on
// sublinks 14/15, and the system ring joining the module system boards
// — one shard per module in a new shard group bound to ctx, with
// `workers` host workers executing the windows. workers < 1 leaves the
// group's default of one worker; the output is identical either way.
func NewAuto(ctx context.Context, dim, workers int) (*Machine, error) {
	spec, err := SpecFor(dim)
	if err != nil {
		return nil, err
	}
	if dim > MaxSimDim {
		return nil, fmt.Errorf("machine: %d-cube exceeds the simulator's %d-cube instantiation cap (use SpecFor for larger derivations)", dim, MaxSimDim)
	}
	mods := (spec.Nodes + module.NodesPerModule - 1) / module.NodesPerModule
	g := sim.NewShardGroupCtx(ctx, mods)
	if workers > 0 {
		g.SetWorkers(workers)
	}
	m := &Machine{Dim: dim, Spec: spec, K: g.Shard(0), Group: g}
	for i := 0; i < spec.Nodes; i++ {
		m.Nodes = append(m.Nodes, node.New(g.Shard(shardOf(i)), i))
	}
	net, err := comm.BuildCube(g, m.Nodes)
	if err != nil {
		return nil, err
	}
	m.Net = net
	// Modules: consecutive groups of eight (a 3-subcube each, so the
	// three intramodule hypercube dimensions stay on the backplane).
	for i := 0; i < spec.Nodes; i += module.NodesPerModule {
		end := min(i+module.NodesPerModule, spec.Nodes)
		idx := len(m.Modules)
		mod, err := module.New(g.Shard(idx), idx, m.Nodes[i:end])
		if err != nil {
			return nil, err
		}
		m.Modules = append(m.Modules, mod)
	}
	if mods > 1 {
		if err := module.ConnectRing(g, m.Modules); err != nil {
			return nil, err
		}
	}
	m.ctl = m.shard0Chans(sim.NewChan(m.K, "machine/ctl", 4*mods))[0]
	if mods > 1 {
		// One-shard rule 2: only a multi-module machine mirrors remote
		// state at barriers.
		g.SetWindowObserver(m.syncShardState)
		m.syncShardState()
	}
	return m, nil
}

// shard0Chan is a channel on shard 0 that a process on any shard can
// send to: directly from shard 0, through a staged uplink edge from any
// other shard.
type shard0Chan struct {
	ch *sim.Chan
	up []*sim.XChan // up[s] stages sends from shard s; up[0] is nil
}

// shard0Chans gives each of chs, which must belong to shard 0, an
// uplink from every other shard. The edges register shard by shard,
// interleaving the channels: the barrier merge breaks timestamp ties by
// edge registration order, so the order is part of the timeline.
func (m *Machine) shard0Chans(chs ...*sim.Chan) []*shard0Chan {
	out := make([]*shard0Chan, len(chs))
	for i, ch := range chs {
		out[i] = &shard0Chan{ch: ch, up: make([]*sim.XChan, m.Group.Shards())}
	}
	for s := 1; s < m.Group.Shards(); s++ {
		for _, c := range out {
			c.up[s] = m.Group.ConnectInto(s, 0, link.Lookahead, c.ch)
		}
	}
	return out
}

// send delivers v into the channel from p, a process on shard s.
func (c *shard0Chan) send(p *sim.Proc, s int, v interface{}) {
	if s == 0 {
		c.ch.Send(p, v)
		return
	}
	c.up[s].Send(p, v)
}

// Endpoint returns node id's message-passing endpoint.
func (m *Machine) Endpoint(id int) *comm.Endpoint { return m.Net.Endpoint(id) }

// GoNode spawns fn as a process on node id's shard kernel. A process
// that touches a node's state must run on the kernel that owns it;
// spawning before Run starts is deterministic.
func (m *Machine) GoNode(id int, name string, fn func(*sim.Proc)) *sim.Proc {
	return m.Nodes[id].K.Go(name, fn)
}

// Run executes the simulation to the horizon (0 = until drained) and
// returns the end time.
func (m *Machine) Run(horizon sim.Duration) sim.Time { return m.Group.Run(horizon) }

// Err reports the simulation's terminal error (context cancellation),
// if any.
func (m *Machine) Err() error { return m.Group.Err() }

// SimStats returns the aggregated kernel statistics. One-shard rule 4:
// a single-module machine reports its kernel's own statistics, the
// shape every single-kernel report has always had.
func (m *Machine) SimStats() sim.Stats {
	if len(m.Modules) == 1 {
		return m.K.Stats()
	}
	return m.Group.Stats()
}

// syncShardState runs after every window barrier and syncs the
// topology views (staged sublink outage mirrors plus the comm view)
// whenever one of the machine's channels changed state since the last
// sync, which the sum of its links' change counts tells.
func (m *Machine) syncShardState() {
	var changes int64
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			changes += l.Changes()
		}
	}
	for _, mod := range m.Modules {
		changes += mod.Sys.Link.Changes()
	}
	if changes == m.changesSeen {
		return
	}
	m.changesSeen = changes
	for _, nd := range m.Nodes {
		for s := 0; s < link.SublinksPerNode; s++ {
			nd.Sublink(s).SyncStagedMirror()
		}
	}
	for _, mod := range m.Modules {
		for s := 0; s < link.SublinksPerLink; s++ {
			mod.Sys.Link.Sublink(s).SyncStagedMirror()
		}
	}
	m.Net.SyncView()
}

// ctlTok is one control-plane join token. Aborted operations can leave
// stale tokens behind (their workers were killed after posting); the
// generation lets the next joiner skip them.
type ctlTok struct{ gen int64 }

// EachModule runs fn once per module, all modules in parallel, each in
// a process named name/modN on its module's own shard, and blocks p
// until every call has returned. p must run on shard 0, where the join
// channel lives. The workers are spawned in a Global section, so spawn
// order never races, and report back through the shard-0 uplinks. It
// returns the error of the lowest-indexed module that failed. Fan-outs
// are issued by one process at a time, so tokens of another generation
// are always leftovers of an aborted earlier operation.
func (m *Machine) EachModule(p *sim.Proc, name string, fn func(sp *sim.Proc, mod *module.Module) error) error {
	if p.Kernel() != m.K {
		panic("machine: EachModule (" + name + ") must be called from a process on shard 0, the control shard")
	}
	m.ctlGen++
	gen := m.ctlGen
	errs := make([]error, len(m.Modules))
	m.Group.Global(p, func(sim.Time) {
		for i, mod := range m.Modules {
			m.Group.Shard(i).Go(fmt.Sprintf("%s/mod%d", name, i), func(sp *sim.Proc) {
				errs[i] = fn(sp, mod)
				m.ctl.send(sp, i, ctlTok{gen: gen})
			})
		}
	})
	for got := 0; got < len(m.Modules); {
		if tok := m.ctl.ch.Recv(p).(ctlTok); tok.gen == gen {
			got++
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SnapshotAll checkpoints every module in parallel and blocks until all
// complete. Because each module has its own thread and disk, the elapsed
// time is that of one module — "regardless of configuration".
func (m *Machine) SnapshotAll(p *sim.Proc) ([]*module.Snapshot, error) {
	snaps := make([]*module.Snapshot, len(m.Modules))
	err := m.EachModule(p, "snapall", func(sp *sim.Proc, mod *module.Module) error {
		var err error
		snaps[mod.Index], err = mod.Snapshot(sp)
		return err
	})
	if err != nil {
		return nil, err
	}
	return snaps, nil
}

// RestoreAll rewinds every module to the given snapshots, in parallel.
func (m *Machine) RestoreAll(p *sim.Proc, snaps []*module.Snapshot) error {
	if len(snaps) != len(m.Modules) {
		return fmt.Errorf("machine: %d snapshots for %d modules", len(snaps), len(m.Modules))
	}
	return m.EachModule(p, "restoreall", func(sp *sim.Proc, mod *module.Module) error {
		return mod.Restore(sp, snaps[mod.Index])
	})
}
