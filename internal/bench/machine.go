package bench

import (
	"context"
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

// The machine scaling curve: one full machine simulation — FPU vector
// forms, router traffic, module threads — at dim 5 (32 nodes, four
// modules), built by machine.NewAuto (one logical shard per module,
// staged intermodule edges) and executed by 1, 2 and 4 host workers:
// machine_shard_scale_1, _2 and _4. The timeline is fixed by the
// geometry — all three execute the identical four-shard simulation — so
// the spread isolates worker parallelism alone, which needs gomaxprocs
// above one to show. Like the synthetic shard_scale curve the scenarios
// are tagged with their shard knob and exempt from the regression gate;
// BENCH_kernel.json's gomaxprocs records which effect the numbers
// include.

// machineShardDim is the measured geometry: 32 nodes in four modules,
// the smallest machine with enough shards to occupy four workers.
const machineShardDim = 5

// machineShardScenarios returns the machine scaling curve points. The
// scenario's shard knob is the requested host worker count; the logical
// partition is fixed by the geometry (four shards).
func machineShardScenarios() []shardScenario {
	var out []shardScenario
	for _, w := range []int{1, 2, 4} {
		out = append(out, shardScenario{
			name:   fmt.Sprintf("machine_shard_scale_%d", w),
			shards: w,
			run:    machineShardRun(w),
		})
	}
	return out
}

// machineShardRun builds the dim-5 machine on the given number of host
// workers and drives a phased exchange workload: every node alternates
// vector compute (a SAXPY form through the FPU model) with a row
// exchange across a rotating hypercube dimension. One operation is one
// node-phase; events scale with n plus the fixed build and drain cost,
// which amortises as n grows.
func machineShardRun(workers int) func(n int) int64 {
	return func(n int) int64 {
		m, err := machine.NewAuto(context.Background(), machineShardDim, workers)
		if err != nil {
			panic(err)
		}
		nodes := len(m.Nodes)
		iters := n/nodes + 1
		a := fparith.FromInt64(2)
		for id := 0; id < nodes; id++ {
			nodeID := id
			m.GoNode(id, fmt.Sprintf("bench/n%d", nodeID), func(p *sim.Proc) {
				nd := m.Nodes[nodeID]
				ep := m.Endpoint(nodeID)
				for it := 0; it < iters; it++ {
					if _, err := nd.RunForm(p, fpu.Op{
						Form: fpu.SAXPY, Prec: fpu.P64, X: 0, Y: 1, Z: 2, A: a,
					}); err != nil {
						panic(err)
					}
					// Pairwise exchange across dimension it%dim: the two
					// ends block on each other, so the lattice stays in
					// lockstep within a tag window of 8 phases.
					peer := nodeID ^ (1 << uint(it%machineShardDim))
					tag := 100 + it%8
					if err := ep.Send(p, peer, tag, []byte{byte(it)}); err != nil {
						panic(err)
					}
					ep.Recv(p, tag)
				}
			})
		}
		m.Run(0)
		return m.SimStats().Events
	}
}
