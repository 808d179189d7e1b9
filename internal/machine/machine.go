package machine

import (
	"context"
	"errors"
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
// Every machine is a shard group with one logical shard per module: the
// eight nodes of a module (and its system board) live on one kernel,
// and every intermodule path — cabled hypercube sublinks and the system
// ring — crosses shards through staged edges with the link-layer
// latency floor as lookahead, exactly the geometry PlanPartition
// derives. Because the partition is fixed by the machine dimension, not
// by the host, the event order is identical at every worker count; the
// worker count picks only how many host cores execute the fixed shard
// set. A single-module machine is a one-shard group, which differs from
// a multi-shard one in exactly four rules, each decided from the plan's
// shard count:
//
//  1. it sets no lookahead, so the group runs one unbounded window;
//  2. it keeps no barrier-synced mirrors of remote state (no comm
//     netView, no retransmit mirror, no window observer) and reads the
//     live objects;
//  3. its fault plan is the single corruption stream on every link,
//     consumed in kernel order (ArmFaultsSink);
//  4. it reports its kernel's own statistics (SimStats), so its reports
//     keep the single-kernel shape, with no Shards or Windows.
//
// Shard-ownership rules for the layers above the network:
//
//   - Anything owned by node/module X — its processes, memory, link
//     counters, mailboxes — is touched only from X's shard kernel. A
//     process that touches a node runs on that node's shard (GoNode),
//     and results that several shards produce go into per-node slots.
//   - Shard 0 (module 0's shard) anchors the control plane: the
//     supervisor alarm channel, ok-token collection, and the failure
//     detector all live there. Other shards reach them through
//     persistent staged uplink edges.
//   - State that crosses shards without a message — spawn/kill of body
//     processes, snapshot aborts, remap walks, topology repair — runs
//     in ShardGroup.Global sections, which execute at window barriers
//     with every shard quiescent (inline on one shard).
//   - Reads of remote state from mid-window code go through
//     barrier-synced copies: the comm netView (liveness/routing), the
//     staged sublink outage mirrors, and the retransmit mirror the
//     lossy-link scanner reads. All of them lag a mid-window change by
//     at most one window, which is deterministic for a fixed partition.
type Machine struct {
	Dim     int
	Spec    Spec
	Nodes   []*node.Node
	Modules []*module.Module
	Net     *comm.Network

	// Group executes the shard kernels and Plan maps modules onto them.
	// K is shard 0's kernel: module 0's shard, where the control plane
	// (supervisor alarms, failure detector) anchors.
	Group *sim.ShardGroup
	Plan  *PartitionPlan
	K     *sim.Kernel

	ctl     []*sim.Chan    // per-shard control-token inbox
	ctlEdge [][]*sim.XChan // [from][to] staged control edges
	ctlGen  int64          // join generation; stale tokens are ignored

	rtxMirror []int64 // [node*links+i] barrier-synced link retransmit counts; nil on one shard
	epochSeen int64   // last topology epoch the shard views were synced at
	faults    *fault.Sharded
}

// NewAuto builds a 2^dim-node machine — nodes, hypercube network on
// sublinks 0..dim-1, modules of eight nodes with system threads on
// sublinks 14/15, and the system ring joining the module system boards
// — partitioned one shard per module across a new shard group bound to
// ctx, with `workers` host workers executing the windows. workers < 1
// leaves the group's default of one worker; the output is identical
// either way.
func NewAuto(ctx context.Context, dim, workers int) (*Machine, error) {
	spec, err := SpecFor(dim)
	if err != nil {
		return nil, err
	}
	if dim > MaxSimDim {
		return nil, fmt.Errorf("machine: %d-cube exceeds the simulator's %d-cube instantiation cap (use SpecFor for larger derivations)", dim, MaxSimDim)
	}
	mods := (spec.Nodes + module.NodesPerModule - 1) / module.NodesPerModule
	plan, err := PlanPartition(dim, mods)
	if err != nil {
		return nil, err
	}
	if ok, why := plan.Buildable(); !ok {
		return nil, errors.New(why)
	}
	g := sim.NewShardGroupCtx(ctx, plan.Shards)
	if workers > 0 {
		g.SetWorkers(workers)
	}
	m := &Machine{Dim: dim, Spec: spec, K: g.Shard(0), Group: g, Plan: plan}
	for i := 0; i < spec.Nodes; i++ {
		m.Nodes = append(m.Nodes, node.New(g.Shard(plan.ShardOfNode(i)), i))
	}
	net, err := comm.BuildCube(g, m.Nodes)
	if err != nil {
		return nil, err
	}
	m.Net = net
	// Modules: consecutive groups of eight (a 3-subcube each, so the
	// three intramodule hypercube dimensions stay on the backplane).
	for i := 0; i < spec.Nodes; i += module.NodesPerModule {
		end := i + module.NodesPerModule
		if end > spec.Nodes {
			end = spec.Nodes
		}
		idx := len(m.Modules)
		mod, err := module.New(g.Shard(plan.Assign[idx]), idx, m.Nodes[i:end])
		if err != nil {
			return nil, err
		}
		m.Modules = append(m.Modules, mod)
	}
	if len(m.Modules) > 1 {
		if err := module.ConnectRing(g, m.Modules); err != nil {
			return nil, err
		}
	}
	// Control-token mesh: every shard can join operations fanned out to
	// every other shard (the joiner may run on any shard).
	m.ctl = make([]*sim.Chan, plan.Shards)
	for s := range m.ctl {
		m.ctl[s] = sim.NewChan(g.Shard(s), fmt.Sprintf("machine/ctl%d", s), 4*len(m.Modules))
	}
	m.ctlEdge = make([][]*sim.XChan, plan.Shards)
	for a := 0; a < plan.Shards; a++ {
		m.ctlEdge[a] = make([]*sim.XChan, plan.Shards)
		for b := 0; b < plan.Shards; b++ {
			if a != b {
				m.ctlEdge[a][b] = g.ConnectInto(a, b, fmt.Sprintf("machine/ctl%d-%d", a, b), plan.Lookahead, m.ctl[b])
			}
		}
	}
	if plan.Shards > 1 {
		// One-shard rules 1 and 2: only a multi-shard machine bounds its
		// windows by the lookahead and mirrors remote state at barriers.
		g.SetLookahead(plan.Lookahead)
		m.rtxMirror = make([]int64, len(m.Nodes)*link.LinksPerNode)
		g.SetWindowObserver(m.syncShardState)
		m.syncShardState()
	}
	return m, nil
}

// Endpoint returns node id's message-passing endpoint.
func (m *Machine) Endpoint(id int) *comm.Endpoint { return m.Net.Endpoint(id) }

// GoNode spawns fn as a process on node id's shard kernel. A process
// that touches a node's state must run on the kernel that owns it;
// spawning before Run starts is deterministic.
func (m *Machine) GoNode(id int, name string, fn func(*sim.Proc)) *sim.Proc {
	return m.Group.Shard(m.Plan.ShardOfNode(id)).Go(name, fn)
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
	if m.Plan.Shards == 1 {
		return m.K.Stats()
	}
	return m.Group.Stats()
}

// shardOfProc identifies which shard kernel p runs on.
func (m *Machine) shardOfProc(p *sim.Proc) int {
	s := m.Group.ShardOf(p.Kernel())
	if s < 0 {
		panic("machine: process not on any shard of this machine")
	}
	return s
}

// syncShardState runs after every window barrier and syncs the
// barrier-frozen shard state: the retransmit mirror always, and the
// topology views (staged sublink outage mirrors plus the comm netView)
// whenever some channel changed state since the last sync.
func (m *Machine) syncShardState() {
	i := 0
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			m.rtxMirror[i] = l.Retransmits
			i++
		}
	}
	ep := link.TopologyEpoch()
	if ep == m.epochSeen {
		return
	}
	m.epochSeen = ep
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

// ctlPost sends a join token from shard `from` to the joiner on shard
// `to`.
func (m *Machine) ctlPost(sp *sim.Proc, from, to int, gen int64) {
	if from == to {
		m.ctl[to].Send(sp, ctlTok{gen: gen})
		return
	}
	m.ctlEdge[from][to].Send(sp, ctlTok{gen: gen})
}

// ctlJoin collects `want` tokens of generation gen on p's shard,
// discarding stale ones. Machine-level fan-outs are issued by one
// process at a time, so tokens of a different generation are always
// leftovers of an aborted earlier operation.
func (m *Machine) ctlJoin(p *sim.Proc, shard int, gen int64, want int) {
	for got := 0; got < want; {
		if tok := m.ctl[shard].Recv(p).(ctlTok); tok.gen == gen {
			got++
		}
	}
}

// EachModule runs fn once per module, all modules in parallel, each in
// a process named name/modN on its module's own shard, and blocks p
// until every call has returned. The workers are spawned in a Global
// section, so spawn order never races, and report back through the
// control mesh to whatever shard p runs on. It returns the error of the
// lowest-indexed module that failed. Fan-outs are issued by one process
// at a time.
func (m *Machine) EachModule(p *sim.Proc, name string, fn func(sp *sim.Proc, mod *module.Module) error) error {
	shard := m.shardOfProc(p)
	m.ctlGen++
	gen := m.ctlGen
	errs := make([]error, len(m.Modules))
	m.Group.Global(p, func(sim.Time) {
		for i, mod := range m.Modules {
			idx, mm := i, mod
			ms := m.Plan.Assign[idx]
			m.Group.Shard(ms).Go(fmt.Sprintf("%s/mod%d", name, idx), func(sp *sim.Proc) {
				errs[idx] = fn(sp, mm)
				m.ctlPost(sp, ms, shard, gen)
			})
		}
	})
	m.ctlJoin(p, shard, gen, len(m.Modules))
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
