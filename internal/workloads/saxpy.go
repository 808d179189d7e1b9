// Package workloads implements the scientific kernels the paper's
// machine was built for — SAXPY sweeps, distributed matrix multiply, LU
// decomposition with physical row pivoting, radix-2 FFT on the butterfly
// mapping, and a 2-D Laplace stencil on the mesh mapping — together with
// a shared-bus baseline machine used to reproduce the paper's argument
// that distributed memory scales where a shared interconnect saturates.
//
// Each workload builds its own machine, runs to completion, and reports
// simulated time and operation counts; results are verified against
// host-arithmetic references in the package tests.
package workloads

import (
	"context"

	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// SAXPYResult reports a distributed SAXPY sweep.
type SAXPYResult struct {
	Nodes   int
	Rows    int // rows per node per repetition
	Reps    int
	Flops   int64
	Elapsed sim.Duration
	Stats   sim.Stats // engine metrics at completion
}

func init() {
	RegisterFunc("saxpy", []string{"dim", "rows", "reps"}, func(cfg Config) (Report, error) {
		reps := cfg.Reps
		if reps < 1 {
			reps = 1
		}
		res, err := DistributedSAXPY(cfg.Context(), cfg.Dim, cfg.Rows, reps)
		if err != nil {
			return Report{}, err
		}
		rep := newReport("saxpy", res.Nodes, res.Elapsed, res.Flops, res.Stats)
		rep.Metrics["mflops"] = res.MFLOPS()
		rep.Summary = fmt.Sprintf("SAXPY: %d nodes × %d rows: %v simulated, %.1f MFLOPS aggregate",
			res.Nodes, res.Rows, res.Elapsed, res.MFLOPS())
		return rep, nil
	})
}

// MFLOPS is the achieved aggregate rate.
func (r SAXPYResult) MFLOPS() float64 {
	return float64(r.Flops) / r.Elapsed.Seconds() / 1e6
}

// DistributedSAXPY runs `reps` sweeps of `rowsPerNode` chained SAXPY row
// operations on every node of a dim-cube, fully in parallel — the
// aggregate-throughput workload behind the paper's 128 MFLOPS module
// and 1 GFLOPS cabinet figures.
func DistributedSAXPY(ctx context.Context, dim, rowsPerNode, reps int) (SAXPYResult, error) {
	m, err := machine.NewAuto(ctx, dim, KernelShardsFrom(ctx))
	if err != nil {
		return SAXPYResult{}, err
	}
	for _, nd := range m.Nodes {
		for i := 0; i < memory.F64PerRow; i++ {
			nd.Mem.PokeF64(i, fparith.FromInt64(int64(i)))
			nd.Mem.PokeF64(300*memory.F64PerRow+i, fparith.FromInt64(3))
		}
	}
	var res SAXPYResult
	res.Nodes = len(m.Nodes)
	res.Rows = rowsPerNode
	res.Reps = reps
	flops := make([]int64, len(m.Nodes))
	errs := make([]error, len(m.Nodes))
	for id, nd := range m.Nodes {
		id, n := id, nd
		m.GoNode(id, n.Name+"/saxpy", func(p *sim.Proc) {
			for rep := 0; rep < reps; rep++ {
				for r := 0; r < rowsPerNode; r++ {
					out := 301 + r%400
					rr, err := n.RunForm(p, fpu.Op{
						Form: fpu.SAXPY, Prec: fpu.P64,
						X: 0, Y: 300, Z: out, A: fparith.FromFloat64(2),
					})
					if err != nil {
						errs[id] = err
						return
					}
					flops[id] += int64(rr.Flops)
				}
			}
		})
	}
	end := m.Run(0)
	if err := m.Err(); err != nil {
		return SAXPYResult{}, err // canceled: results are partial
	}
	if err := firstErr(errs); err != nil {
		return SAXPYResult{}, err
	}
	res.Flops = sum64(flops)
	res.Elapsed = sim.Duration(end)
	res.Stats = m.SimStats()
	return res, nil
}

// BusSAXPY runs the same sweep on a modelled shared-bus multiprocessor:
// P identical vector processors whose operand streams all cross one
// global bus. The bus bandwidth is four times a single T Series node's
// operand bandwidth (a generous bus), so performance scales to about
// four processors and then saturates — the §I argument for distributed
// memory.
type BusSAXPY struct {
	// BusBandwidth in bytes/second. Default: 4 × 192 MB/s.
	BusBandwidth float64
}

// Run executes the sweep and reports the aggregate result.
func (b BusSAXPY) Run(procs, rowsPerProc, reps int) SAXPYResult {
	bw := b.BusBandwidth
	if bw == 0 {
		bw = 4 * 192e6
	}
	k := sim.NewKernel()
	bus := sim.NewResource(k, "bus", 1)
	var res SAXPYResult
	res.Nodes = procs
	res.Rows = rowsPerProc
	res.Reps = reps
	// Per row: 128 elements × 24 bytes (two operands in, one result out)
	// must cross the bus; compute takes the node-standard stream time.
	busTime := sim.Duration(float64(memory.F64PerRow*24) / bw * float64(sim.Second))
	computeTime := sim.Duration(13+memory.F64PerRow) * sim.Cycle
	for pr := 0; pr < procs; pr++ {
		k.Go(fmt.Sprintf("busproc%d", pr), func(p *sim.Proc) {
			for rep := 0; rep < reps*rowsPerProc; rep++ {
				start := p.Now()
				bus.Use(p, busTime)
				// Computation overlaps bus transfers of other processors
				// but each row still needs its full pipeline time.
				if spent := p.Now().Sub(start); spent < computeTime {
					p.Wait(computeTime - spent)
				}
				res.Flops += int64(2 * memory.F64PerRow)
			}
		})
	}
	end := k.Run(0)
	res.Elapsed = sim.Duration(end)
	res.Stats = k.Stats()
	return res
}
