package comm

import (
	"bytes"
	"strings"
	"testing"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// buildNet constructs a 2^dim-node cube network on one kernel.
func buildNet(t testing.TB, dim int) (*sim.Kernel, *Network) {
	t.Helper()
	g := sim.NewShardGroup(1)
	k := g.Shard(0)
	nodes := make([]*node.Node, cube.Nodes(dim))
	for i := range nodes {
		nodes[i] = node.New(k, i)
	}
	net, err := BuildCube(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return k, net
}

// spmd runs fn on every node as its own process and waits for all.
func spmd(k *sim.Kernel, net *Network, fn func(p *sim.Proc, e *Endpoint)) {
	for i := 0; i < net.Size(); i++ {
		e := net.Endpoint(i)
		k.Go(e.nd.Name+"/main", func(p *sim.Proc) { fn(p, e) })
	}
	k.Run(0)
}

func TestNeighborSend(t *testing.T) {
	k, net := buildNet(t, 3)
	var got []byte
	var src int
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 1, 7, []byte("hi")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		src, got = net.Endpoint(1).Recv(p, 7)
	})
	k.Run(0)
	if src != 0 || !bytes.Equal(got, []byte("hi")) {
		t.Fatalf("src=%d got=%q", src, got)
	}
}

func TestMultiHopRouting(t *testing.T) {
	// 0 → 7 in a 3-cube is three hops (e-cube: via 1 and 3).
	k, net := buildNet(t, 3)
	var arrive sim.Time
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 7, 9, make([]byte, 100)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		src, payload := net.Endpoint(7).Recv(p, 9)
		if src != 0 || len(payload) != 100 {
			t.Errorf("src=%d len=%d", src, len(payload))
		}
		arrive = p.Now()
	})
	k.Run(0)
	oneHop := link.TransferTime(100 + 16)
	if arrive < sim.Time(3*oneHop) {
		t.Fatalf("3-hop message arrived too early: %v < %v", arrive, 3*oneHop)
	}
	if arrive > sim.Time(3*oneHop+10*sim.Microsecond) {
		t.Fatalf("3-hop message too slow: %v", arrive)
	}
	// Intermediate nodes forwarded.
	if net.Endpoint(1).Forwarded+net.Endpoint(3).Forwarded < 2 {
		t.Fatal("expected store-and-forward hops")
	}
}

func TestHopCostScalesWithDistance(t *testing.T) {
	// O(log N): time grows linearly in Hamming distance.
	k, net := buildNet(t, 4)
	times := map[int]sim.Duration{}
	dsts := []int{1, 3, 7, 15} // distances 1..4
	k.Go("tx", func(p *sim.Proc) {
		for _, d := range dsts {
			if err := net.Endpoint(0).Send(p, d, 5, make([]byte, 50)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	for _, d := range dsts {
		dst := d
		k.Go("rx", func(p *sim.Proc) {
			start := p.Now()
			net.Endpoint(dst).Recv(p, 5)
			times[dst] = p.Now().Sub(start)
		})
	}
	k.Run(0)
	if !(times[1] < times[3] && times[3] < times[7] && times[7] < times[15]) {
		t.Fatalf("times not monotone in distance: %v", times)
	}
}

func TestBroadcast(t *testing.T) {
	k, net := buildNet(t, 4)
	results := make([][]byte, net.Size())
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		var mine []byte
		if e.ID() == 5 {
			mine = []byte("announcement")
		}
		got, err := e.Broadcast(p, 5, 11, mine)
		if err != nil {
			t.Errorf("bcast on %d: %v", e.ID(), err)
		}
		results[e.ID()] = got
	})
	for id, r := range results {
		if !bytes.Equal(r, []byte("announcement")) {
			t.Fatalf("node %d got %q", id, r)
		}
	}
}

func TestBroadcastLatencyLogarithmic(t *testing.T) {
	// Binomial-tree broadcast completes in ≤ dim sequential hops (plus
	// the root's serial sends), not Size hops.
	k, net := buildNet(t, 4)
	var last sim.Time
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		if _, err := e.Broadcast(p, 0, 3, make([]byte, 10)); err != nil {
			t.Errorf("bcast: %v", err)
		}
		if p.Now() > last {
			last = p.Now()
		}
	})
	hop := link.TransferTime(10 + 16)
	// Root sends to 4 children serially on different links; depth ≤ 4.
	if last > sim.Time(8*hop) {
		t.Fatalf("broadcast took %v, want ≤ %v", last, 8*hop)
	}
}

func TestAllReduceSum(t *testing.T) {
	k, net := buildNet(t, 3)
	results := make([]float64, net.Size())
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		mine := []fparith.F64{fparith.FromInt64(int64(e.ID()))}
		out, err := e.AllReduceF64(p, 20, AddF64, mine)
		if err != nil {
			t.Errorf("allreduce on %d: %v", e.ID(), err)
		}
		results[e.ID()] = out[0].Float64()
	})
	for id, r := range results {
		if r != 28 { // 0+1+…+7
			t.Fatalf("node %d allreduce = %g, want 28", id, r)
		}
	}
}

func TestAllReduceBitIdentical(t *testing.T) {
	// With a fixed combine order the result is bit-identical everywhere,
	// even for rounding-sensitive values.
	k, net := buildNet(t, 3)
	results := make([]fparith.F64, net.Size())
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		v := fparith.FromFloat64(0.1 * float64(e.ID()+1))
		out, err := e.AllReduceF64(p, 20, AddF64, []fparith.F64{v})
		if err != nil {
			t.Errorf("allreduce: %v", err)
		}
		results[e.ID()] = out[0]
	})
	for id := 1; id < len(results); id++ {
		if results[id] != results[0] {
			t.Fatalf("node %d result differs: %x vs %x", id, results[id], results[0])
		}
	}
}

func TestReduceToRoot(t *testing.T) {
	k, net := buildNet(t, 4)
	var rootSum float64
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		mine := []fparith.F64{fparith.FromInt64(1), fparith.FromInt64(int64(e.ID()))}
		out, err := e.ReduceF64(p, 3, 30, AddF64, mine)
		if err != nil {
			t.Errorf("reduce on %d: %v", e.ID(), err)
		}
		if e.ID() == 3 {
			rootSum = out[0].Float64()
			if got := out[1].Float64(); got != 120 { // 0+..+15
				t.Errorf("reduce sum of ids = %g, want 120", got)
			}
		} else if out != nil {
			t.Errorf("non-root %d got a result", e.ID())
		}
	})
	if rootSum != 16 {
		t.Fatalf("count = %g, want 16", rootSum)
	}
}

func TestBarrier(t *testing.T) {
	// No node leaves the barrier before the slowest enters.
	k, net := buildNet(t, 3)
	var slowEnter sim.Time
	exits := make([]sim.Time, net.Size())
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		if e.ID() == 5 {
			p.Wait(3 * sim.Millisecond)
			slowEnter = p.Now()
		}
		if err := e.Barrier(p, 40); err != nil {
			t.Errorf("barrier: %v", err)
		}
		exits[e.ID()] = p.Now()
	})
	for id, x := range exits {
		if x < slowEnter {
			t.Fatalf("node %d left barrier at %v before slowest entered at %v", id, x, slowEnter)
		}
	}
}

func TestScatterGather(t *testing.T) {
	k, net := buildNet(t, 3)
	n := net.Size()
	full := make([]fparith.F64, 4*n)
	for i := range full {
		full[i] = fparith.FromInt64(int64(i * 10))
	}
	collected := make([]fparith.F64, 0)
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		var in []fparith.F64
		if e.ID() == 0 {
			in = full
		}
		chunk, err := e.ScatterF64(p, 0, 50, in)
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if len(chunk) != 4 || chunk[0] != full[e.ID()*4] {
			t.Errorf("node %d chunk wrong: %v", e.ID(), chunk)
		}
		// Double each element locally, then gather back.
		for i := range chunk {
			chunk[i] = fparith.Add64(chunk[i], chunk[i])
		}
		out, err := e.GatherF64(p, 0, 60, chunk)
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if e.ID() == 0 {
			collected = out
		}
	})
	if len(collected) != len(full) {
		t.Fatalf("gathered %d elements", len(collected))
	}
	for i := range full {
		if collected[i].Float64() != 2*full[i].Float64() {
			t.Fatalf("element %d = %g, want %g", i, collected[i].Float64(), 2*full[i].Float64())
		}
	}
}

func TestAllToAll(t *testing.T) {
	k, net := buildNet(t, 2)
	n := net.Size()
	results := make([][]fparith.F64, n)
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		// Node i sends value 100*i+j to node j.
		vals := make([]fparith.F64, n)
		for j := range vals {
			vals[j] = fparith.FromInt64(int64(100*e.ID() + j))
		}
		out, err := e.AllToAllF64(p, 70, vals)
		if err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		results[e.ID()] = out
	})
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := float64(100*i + j)
			if got := results[j][i].Float64(); got != want {
				t.Fatalf("node %d slot %d = %g, want %g", j, i, got, want)
			}
		}
	}
}

func TestSelfSend(t *testing.T) {
	k, net := buildNet(t, 1)
	k.Go("self", func(p *sim.Proc) {
		e := net.Endpoint(0)
		if err := e.Send(p, 0, 1, []byte("me")); err != nil {
			t.Errorf("self send: %v", err)
		}
		src, got := e.Recv(p, 1)
		if src != 0 || string(got) != "me" {
			t.Errorf("self recv: %d %q", src, got)
		}
	})
	k.Run(0)
}

func TestBuildErrors(t *testing.T) {
	g := sim.NewShardGroup(1)
	k := g.Shard(0)
	nodes := []*node.Node{node.New(k, 0), node.New(k, 1), node.New(k, 2)}
	if _, err := BuildCube(g, nodes); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	g2 := sim.NewShardGroup(1)
	wrongOrder := []*node.Node{node.New(g2.Shard(0), 1), node.New(g2.Shard(0), 0)}
	if _, err := BuildCube(g2, wrongOrder); err == nil {
		t.Fatal("out-of-order node ids accepted")
	}
	stray := []*node.Node{node.New(sim.NewKernel(), 0), node.New(sim.NewKernel(), 1)}
	if _, err := BuildCube(sim.NewShardGroup(1), stray); err == nil {
		t.Fatal("nodes outside the group accepted")
	}
}

func TestTagIsolation(t *testing.T) {
	// Messages with different tags do not cross.
	k, net := buildNet(t, 1)
	k.Go("tx", func(p *sim.Proc) {
		e := net.Endpoint(0)
		if err := e.Send(p, 1, 100, []byte("a")); err != nil {
			t.Errorf("send: %v", err)
		}
		if err := e.Send(p, 1, 200, []byte("b")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		e := net.Endpoint(1)
		_, pb := e.Recv(p, 200)
		_, pa := e.Recv(p, 100)
		if string(pa) != "a" || string(pb) != "b" {
			t.Errorf("tag crosstalk: %q %q", pa, pb)
		}
	})
	k.Run(0)
}

func TestNetworkStatsAndReport(t *testing.T) {
	k, net := buildNet(t, 2)
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).Send(p, 3, 9, make([]byte, 500)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) { net.Endpoint(3).Recv(p, 9) })
	k.Run(0)
	s := net.Stats()
	// One 2-hop message: two wire transfers, 516 bytes each on the wire.
	if s.Transfers != 2 {
		t.Fatalf("transfers = %d", s.Transfers)
	}
	if s.BytesOnWire != 2*(500+16) {
		t.Fatalf("bytes on wire = %d", s.BytesOnWire)
	}
	if s.MaxWireUtil <= 0 || s.MaxWireUtil > 1 {
		t.Fatalf("max util = %g", s.MaxWireUtil)
	}
	rep := net.Report().String()
	if !strings.Contains(rep, "network traffic") {
		t.Fatalf("report: %s", rep)
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	k, net := buildNet(t, 3)
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var src int
	k.Go("tx", func(p *sim.Proc) {
		if err := net.Endpoint(0).SendChunked(p, 7, 80, payload, 1024); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		var err error
		src, got, err = net.Endpoint(7).RecvChunked(p, 80)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	k.Run(0)
	if src != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("chunked payload corrupted (src=%d, %d bytes)", src, len(got))
	}
}

func TestChunkedPipelinesAcrossHops(t *testing.T) {
	// A 32 KB transfer over 3 hops: monolithic costs ≈3× wire time;
	// 2 KB chunks overlap the hops and approach 1× (+ startup overhead).
	const bytes32k = 32 * 1024
	payload := make([]byte, bytes32k)
	run := func(chunk int) sim.Duration {
		k, net := buildNet(t, 3)
		var done sim.Time
		k.Go("tx", func(p *sim.Proc) {
			var err error
			if chunk == 0 {
				err = net.Endpoint(0).Send(p, 7, 81, payload)
			} else {
				err = net.Endpoint(0).SendChunked(p, 7, 81, payload, chunk)
			}
			if err != nil {
				t.Errorf("send: %v", err)
			}
		})
		k.Go("rx", func(p *sim.Proc) {
			if chunk == 0 {
				net.Endpoint(7).Recv(p, 81)
			} else {
				if _, _, err := net.Endpoint(7).RecvChunked(p, 81); err != nil {
					t.Errorf("recv: %v", err)
				}
			}
			done = p.Now()
		})
		k.Run(0)
		return sim.Duration(done)
	}
	mono := run(0)
	chunked := run(2048)
	if chunked >= mono {
		t.Fatalf("chunking did not help: %v vs %v", chunked, mono)
	}
	// 3 hops → ideal speedup approaches 3 for many chunks; expect > 2.
	if ratio := float64(mono) / float64(chunked); ratio < 2 {
		t.Fatalf("pipelining ratio only %.2f", ratio)
	}
}

func TestChunkedErrors(t *testing.T) {
	k, net := buildNet(t, 1)
	var err error
	k.Go("tx", func(p *sim.Proc) {
		err = net.Endpoint(0).SendChunked(p, 1, 82, []byte{1}, 0)
	})
	k.Go("drain", func(p *sim.Proc) { p.Wait(sim.Nanosecond) })
	k.Run(0)
	if err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

func TestCubeSublinkMappingIsSafe(t *testing.T) {
	// The dimension→sublink map must be injective and avoid the two
	// system-thread sublinks (14, 15).
	seen := map[int]bool{}
	for d := 0; d < cube.MaxDim; d++ {
		s := CubeSublink(d)
		if s < 0 || s > 13 {
			t.Fatalf("dim %d uses reserved sublink %d", d, s)
		}
		if seen[s] {
			t.Fatalf("sublink %d assigned twice", s)
		}
		seen[s] = true
	}
	// The first three dimensions (intramodule) ride distinct physical
	// links so module-internal traffic does not share wires.
	l0, l1, l2 := CubeSublink(0)/4, CubeSublink(1)/4, CubeSublink(2)/4
	if l0 == l1 || l1 == l2 || l0 == l2 {
		t.Fatalf("intramodule dims share physical links: %d %d %d", l0, l1, l2)
	}
}

func TestAllGather(t *testing.T) {
	k, net := buildNet(t, 3)
	n := net.Size()
	results := make([][]fparith.F64, n)
	spmd(k, net, func(p *sim.Proc, e *Endpoint) {
		mine := []fparith.F64{
			fparith.FromInt64(int64(10 * e.ID())),
			fparith.FromInt64(int64(10*e.ID() + 1)),
		}
		out, err := e.AllGatherF64(p, 100, mine)
		if err != nil {
			t.Errorf("allgather on %d: %v", e.ID(), err)
			return
		}
		results[e.ID()] = out
	})
	for id, out := range results {
		if len(out) != 2*n {
			t.Fatalf("node %d gathered %d elements", id, len(out))
		}
		for src := 0; src < n; src++ {
			if out[2*src].Float64() != float64(10*src) || out[2*src+1].Float64() != float64(10*src+1) {
				t.Fatalf("node %d chunk %d wrong: %v %v", id, src, out[2*src], out[2*src+1])
			}
		}
	}
}

func TestAllGatherLogRounds(t *testing.T) {
	// Recursive doubling costs ~dim rounds; time must grow far slower
	// than linearly in node count (naive would send N−1 blocks through
	// the root links).
	run := func(dim int) sim.Duration {
		k, net := buildNet(t, dim)
		var last sim.Time
		spmd(k, net, func(p *sim.Proc, e *Endpoint) {
			if _, err := e.AllGatherF64(p, 100, []fparith.F64{fparith.FromInt64(int64(e.ID()))}); err != nil {
				t.Errorf("allgather: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		return sim.Duration(last)
	}
	t2 := run(1)
	t16 := run(4)
	// 8× the nodes; doubling block sizes mean the last round dominates:
	// allow ~8× but not the ~15× of a naive gather+broadcast.
	if float64(t16) > 10*float64(t2) {
		t.Fatalf("allgather scaling poor: %v at 2 nodes, %v at 16", t2, t16)
	}
}
