package comm

import (
	"errors"
	"fmt"

	"tseries/internal/cube"
)

// Live-graph routing. The fault-free network routes pure e-cube: correct
// the lowest differing address bit whose channel is up. That greedy rule
// survives a single outage (the detour candidates in candidates()), but
// under several simultaneous dead links a greedy detour can wander into
// a corner where every remaining choice bounces the message around until
// its hop budget dies. So whenever the topology is damaged, forwarding
// switches to a next-hop table computed by breadth-first search over the
// live graph — the nodes still in service and the channels still up.
// The table is part of the network's topology view, which every shard
// count builds the same way (SyncView); with the machine healthy the
// fast path is byte-identical to the fault-free simulator.

// UnreachableError reports that no sequence of live channels connects
// this node to the destination: the failures have partitioned the cube.
type UnreachableError struct {
	Src, Dst int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("comm: node %d is unreachable from node %d (network partitioned)", e.Dst, e.Src)
}

// IsUnreachable reports whether err is (or wraps) an UnreachableError.
func IsUnreachable(err error) bool {
	var ue *UnreachableError
	return errors.As(err, &ue)
}

// topology is one generation of a network's view of itself: which
// nodes are in service, which channels are up, and the live-graph
// next-hop table. Send's fail-fast check, the collectives'
// degraded-mode re-rooting, and forward's choice of table or e-cube all
// read it; only the candidates loop reads live channel state.
type topology struct {
	changes int64    // topoChanges when the view was built
	healthy bool     // every node alive, every cube channel up: route pure e-cube
	anyDead bool     // some node crashed
	lowest  int      // lowest alive node id, -1 if none
	alive   []bool   // per-node liveness
	nextHop [][]int8 // [src][dst] → outbound dimension, -1 unreachable; nil while healthy
}

// topoChanges reads the change count of the kernel of the network's
// first node. On a one-shard network that kernel hosts every link, so
// the count moves whenever one of the network's channels goes up, goes
// down, or is rewired, and never because of another simulation in the
// process. A node crash or repair always moves it too, because it flips
// the node's system-thread sublinks 14 and 15, which nothing else takes
// down. A transition of another link on that kernel, a system board's,
// moves it as well, and only rebuilds an unchanged view.
func (n *Network) topoChanges() int64 { return n.Nodes[0].K.Changes() }

// SyncView rebuilds the topology view and stamps it with topoChanges.
// On a network spread over several shards it must be called only when
// every shard is quiescent — at a ShardGroup window barrier, or from
// host/Global context — and after the staged sublink mirrors have been
// synced, so Up() reads are coherent.
func (n *Network) SyncView() {
	t := &topology{changes: n.topoChanges(), healthy: true, lowest: -1, alive: make([]bool, len(n.Nodes))}
	for id, nd := range n.Nodes {
		if !nd.Alive() {
			t.anyDead, t.healthy = true, false
			continue
		}
		t.alive[id] = true
		if t.lowest < 0 {
			t.lowest = id
		}
		for d := 0; d < n.Dim && t.healthy; d++ {
			if !nd.Sublink(CubeSublink(d)).Up() {
				t.healthy = false
			}
		}
	}
	if !t.healthy {
		t.nextHop = n.buildNextHop()
	}
	n.topo = t
}

// view returns the topology view. A network spread over several shards
// reads the view its last window barrier froze, so mid-window code
// touches no other shard's state; a crash becomes visible to remote
// shards at most one window late, a lag identical at every worker
// count. A one-shard network runs one unbounded window, so it rebuilds
// its view here whenever its kernel's change count has moved.
func (n *Network) view() *topology {
	if !n.frozen && n.topo.changes != n.topoChanges() {
		n.SyncView()
	}
	return n.topo
}

// buildNextHop runs one BFS per destination over the live graph and
// records, for every source, the lowest outbound dimension that lies on
// a shortest live path (lowest-dimension tie-break keeps routing
// deterministic). Crashed nodes take no part: their links are down, so
// no live edge touches them.
func (n *Network) buildNextHop() [][]int8 {
	size := len(n.Nodes)
	hop := make([][]int8, size)
	for src := range hop {
		hop[src] = make([]int8, size)
		for dst := range hop[src] {
			hop[src][dst] = -1
		}
	}
	dist := make([]int, size)
	queue := make([]int, 0, size)
	for dst := 0; dst < size; dst++ {
		if !n.Nodes[dst].Alive() {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := 0; d < n.Dim; d++ {
				v := cube.Neighbor(u, d)
				if dist[v] >= 0 || !n.Nodes[u].Sublink(CubeSublink(d)).Up() {
					continue
				}
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
		for src := 0; src < size; src++ {
			if src == dst || dist[src] < 0 {
				continue
			}
			for d := 0; d < n.Dim; d++ {
				v := cube.Neighbor(src, d)
				if dist[v] == dist[src]-1 && n.Nodes[src].Sublink(CubeSublink(d)).Up() {
					hop[src][dst] = int8(d)
					break
				}
			}
		}
	}
	return hop
}
