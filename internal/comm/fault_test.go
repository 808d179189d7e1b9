package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/sim"
)

func TestDetourAroundDownedLink(t *testing.T) {
	// Cut the dimension-0 edge between nodes 0 and 1 of a 2-cube. The
	// e-cube route 0→1 is exactly that edge, so the message must detour
	// 0→2→3→1 and still arrive intact.
	k, net := buildNet(t, 2)
	net.Nodes[0].Sublink(CubeSublink(0)).SetDown(true)
	payload := []byte("around the block")
	var got []byte
	var src int
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 1, 5, payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) { src, got = net.Endpoint(1).Recv(p, 5) })
	k.Run(0)
	if src != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("src=%d got=%q", src, got)
	}
	if net.Endpoint(0).Detours != 1 {
		t.Fatalf("origin detours = %d, want 1", net.Endpoint(0).Detours)
	}
	var drops int64
	for id := 0; id < net.Size(); id++ {
		drops += net.Endpoint(id).RouteDrops
	}
	if drops != 0 {
		t.Fatalf("detour route dropped %d messages", drops)
	}
}

func TestRouteRestoredAfterLinkUp(t *testing.T) {
	k, net := buildNet(t, 2)
	sl := net.Nodes[0].Sublink(CubeSublink(0))
	sl.SetDown(true)
	sl.SetDown(false)
	var got []byte
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 1, 5, []byte{1}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) { _, got = net.Endpoint(1).Recv(p, 5) })
	k.Run(0)
	if len(got) != 1 {
		t.Fatal("no delivery after link restore")
	}
	if net.Endpoint(0).Detours != 0 {
		t.Fatal("restored link still detouring")
	}
}

// TestRouteTableIgnoresOtherNetworks: a one-shard network stamps its
// topology view with its own links' change count, so an outage in
// another network of the same process — another job's machine — leaves
// the view and its route table in place, and only a change of its own
// rebuilds them.
func TestRouteTableIgnoresOtherNetworks(t *testing.T) {
	_, a := buildNet(t, 2)
	a.Nodes[0].Sublink(CubeSublink(0)).SetDown(true)
	cached := a.view()
	_, b := buildNet(t, 2)
	b.Nodes[1].Sublink(CubeSublink(1)).SetDown(true)
	if a.view() != cached {
		t.Fatal("an outage in another network rebuilt this network's topology view")
	}
	a.Nodes[0].Sublink(CubeSublink(0)).SetDown(false)
	if v := a.view(); v == cached || !v.healthy {
		t.Fatal("this network's own repair did not rebuild its topology view")
	}
}

// nackFirst rejects the first frame it sees with a one-bit flip, which
// the receiver's CRC always catches, and passes every later frame.
type nackFirst struct{ fired bool }

func (f *nackFirst) Corrupt(string, int) []int {
	if f.fired {
		return nil
	}
	f.fired = true
	return []int{0}
}

// TestTableHopDownAfterHeal: on a damaged one-shard network a table hop
// that ends in a DownError after the topology has healed falls back to
// the e-cube candidates and delivers. Channel 2↔3 is down, so 0→1
// routes by the table over channel 0↔1. That channel goes down during
// the first (nacked) attempt, so every retransmit times out, and both
// channels come back during the last attempt, after its down check and
// before its DownError.
func TestTableHopDownAfterHeal(t *testing.T) {
	k, net := buildNet(t, 2)
	far := net.Nodes[2].Sublink(CubeSublink(0))
	far.SetDown(true)
	hop := net.Nodes[0].Sublink(CubeSublink(0))
	net.Nodes[0].Links[CubeSublink(0)/link.SublinksPerLink].SetInjector(&nackFirst{})
	payload := []byte("healed")
	last := link.TransferTime(headerBytes + len(payload))
	for a := 1; a < link.MaxSendAttempts; a++ {
		last += link.DMAStartup + link.AckTimeout + link.RetryBackoff(a)
	}
	k.After(sim.Microsecond, func() { hop.SetDown(true) })
	k.After(last+(link.DMAStartup+link.AckTimeout)/2, func() {
		hop.SetDown(false)
		far.SetDown(false)
	})
	var got []byte
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 1, 5, payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) { _, got = net.Endpoint(1).Recv(p, 5) })
	k.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
	if drops := net.Nodes[0].Links[0].Drops; drops != 1 {
		t.Fatalf("link drops = %d, want 1: the table hop did not end in a DownError", drops)
	}
}

func TestSendToCrashedNodeFailsFast(t *testing.T) {
	k, net := buildNet(t, 2)
	net.Nodes[3].Crash()
	var err error
	k.Go("tx", func(p *sim.Proc) { err = net.Endpoint(0).Send(p, 3, 5, []byte{1}) })
	k.Run(0)
	if !IsCrashed(err) {
		t.Fatalf("got %v, want CrashedError", err)
	}
}

func TestDegradedCollectivesAmongSurvivors(t *testing.T) {
	// Crash node 2 of a 2-cube; the survivors' broadcast, reduce, and
	// all-reduce must re-root around the hole and still agree.
	k, net := buildNet(t, 2)
	net.Nodes[2].Crash()
	alive := []int{0, 1, 3}

	bcast := make(map[int][]byte)
	sums := make(map[int]float64)
	reduced := make(map[int][]fparith.F64)
	for _, id := range alive {
		e := net.Endpoint(id)
		k.Go(e.nd.Name+"/main", func(p *sim.Proc) {
			got, err := e.Broadcast(p, 0, 11, []byte("fanout"))
			if err != nil {
				t.Errorf("node %d broadcast: %v", e.id, err)
				return
			}
			bcast[e.id] = got
			out, err := e.AllReduceF64(p, 21, AddF64, []fparith.F64{fparith.FromInt64(int64(e.id))})
			if err != nil {
				t.Errorf("node %d allreduce: %v", e.id, err)
				return
			}
			sums[e.id] = out[0].Float64()
			r, err := e.ReduceF64(p, 0, 31, AddF64, []fparith.F64{fparith.FromInt64(int64(e.id + 1))})
			if err != nil {
				t.Errorf("node %d reduce: %v", e.id, err)
				return
			}
			reduced[e.id] = r
		})
	}
	k.Run(0)
	for _, id := range alive {
		if !bytes.Equal(bcast[id], []byte("fanout")) {
			t.Fatalf("node %d broadcast got %q", id, bcast[id])
		}
		if sums[id] != 4 { // 0 + 1 + 3
			t.Fatalf("node %d allreduce sum = %g, want 4", id, sums[id])
		}
	}
	if len(reduced[0]) != 1 || reduced[0][0].Float64() != 7 { // 1 + 2 + 4
		t.Fatalf("root reduce = %v", reduced[0])
	}
}

func TestBroadcastFromCrashedRoot(t *testing.T) {
	k, net := buildNet(t, 2)
	net.Nodes[2].Crash()
	errs := make(map[int]error)
	for _, id := range []int{0, 1, 3} {
		e := net.Endpoint(id)
		k.Go(e.nd.Name+"/main", func(p *sim.Proc) {
			_, errs[e.id] = e.Broadcast(p, 2, 41, []byte("nope"))
		})
	}
	k.Run(0)
	for id, err := range errs {
		if !IsCrashed(err) {
			t.Fatalf("node %d: got %v, want CrashedError", id, err)
		}
	}
}

func TestCrashRepairRestoresFastPath(t *testing.T) {
	k, net := buildNet(t, 2)
	net.Nodes[1].Crash()
	if !net.anyCrashed() {
		t.Fatal("crash not visible")
	}
	net.Nodes[1].Repair()
	if net.anyCrashed() {
		t.Fatal("repair not visible")
	}
	// Full-machine all-reduce works again, fast path.
	sums := make([]float64, net.Size())
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		out, err := e.AllReduceF64(p, 51, AddF64, []fparith.F64{fparith.FromInt64(int64(e.id))})
		if err != nil {
			t.Errorf("node %d: %v", e.id, err)
			return
		}
		sums[e.id] = out[0].Float64()
	})
	for id, v := range sums {
		if v != 6 {
			t.Fatalf("node %d sum = %g, want 6", id, v)
		}
	}
}

// TestManyDeadLinksProperty is the detour property test: across many
// seeded trials, a random set of simultaneously dead channels is cut
// out of a 3-cube, reachability is computed independently on the host,
// and then every ordered pair is exercised — pairs the live graph still
// connects must deliver intact (however crooked the route), and pairs
// it has partitioned must fail at the origin with a typed
// UnreachableError. Nothing may be silently dropped en route.
func TestManyDeadLinksProperty(t *testing.T) {
	const dim = 3
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k, net := buildNet(t, dim)
			rng := rand.New(rand.NewSource(seed))
			// Cut 2..7 of the 12 edges. Each edge is (node, dim) with the
			// lower endpoint naming it; SetDown on one end downs both ways.
			type edge struct{ nd, d int }
			var edges []edge
			for n := 0; n < net.Size(); n++ {
				for d := 0; d < dim; d++ {
					if n < n^(1<<uint(d)) {
						edges = append(edges, edge{n, d})
					}
				}
			}
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			dead := edges[:2+rng.Intn(6)]
			for _, e := range dead {
				net.Nodes[e.nd].Sublink(CubeSublink(e.d)).SetDown(true)
			}
			// Host-side reachability over the live graph.
			reach := make([][]bool, net.Size())
			for src := range reach {
				reach[src] = make([]bool, net.Size())
				seen := map[int]bool{src: true}
				queue := []int{src}
				for len(queue) > 0 {
					u := queue[0]
					queue = queue[1:]
					reach[src][u] = true
					for d := 0; d < dim; d++ {
						v := u ^ (1 << uint(d))
						if !seen[v] && net.Nodes[u].Sublink(CubeSublink(d)).Up() {
							seen[v] = true
							queue = append(queue, v)
						}
					}
				}
			}
			// Exercise every ordered pair concurrently, one tag per pair.
			type verdict struct {
				delivered bool
				err       error
			}
			verdicts := make(map[[2]int]*verdict)
			for src := 0; src < net.Size(); src++ {
				for dst := 0; dst < net.Size(); dst++ {
					if src == dst {
						continue
					}
					src, dst := src, dst
					v := &verdict{}
					verdicts[[2]int{src, dst}] = v
					tag := src*64 + dst
					payload := []byte{byte(src), byte(dst), byte(seed)}
					if reach[src][dst] {
						k.Go(fmt.Sprintf("rx%d-%d", src, dst), func(p *sim.Proc) {
							from, got := net.Endpoint(dst).Recv(p, tag)
							v.delivered = from == src && bytes.Equal(got, payload)
						})
					}
					k.Go(fmt.Sprintf("tx%d-%d", src, dst), func(p *sim.Proc) {
						v.err = net.Endpoint(src).Send(p, dst, tag, payload)
					})
				}
			}
			k.Run(0)
			for pair, v := range verdicts {
				src, dst := pair[0], pair[1]
				if reach[src][dst] {
					if v.err != nil || !v.delivered {
						t.Errorf("reachable pair %d→%d: err=%v delivered=%v (dead: %v)",
							src, dst, v.err, v.delivered, dead)
					}
				} else if !IsUnreachable(v.err) {
					t.Errorf("partitioned pair %d→%d: got %v, want UnreachableError (dead: %v)",
						src, dst, v.err, dead)
				}
			}
			var drops int64
			for id := 0; id < net.Size(); id++ {
				drops += net.Endpoint(id).RouteDrops
			}
			if drops != 0 {
				t.Errorf("%d messages silently dropped en route (dead: %v)", drops, dead)
			}
		})
	}
}
