package workloads

import (
	"context"

	"fmt"
	"math/rand"

	"tseries/internal/comm"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// DLUResult reports a distributed LU factorisation.
type DLUResult struct {
	N       int
	Nodes   int
	Elapsed sim.Duration
	Swaps   int
	L, U    [][]float64
	Perm    []int
	Stats   sim.Stats // engine metrics at completion
}

func init() {
	RegisterFunc("dlu", []string{"dim", "n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		a := randMatDD(r, cfg.N)
		res, err := DistributedLU(cfg.Context(), cfg.Dim, cfg.N, a)
		if err != nil {
			return Report{}, err
		}
		n := cfg.N
		flops := 2 * int64(n) * int64(n) * int64(n) / 3
		rep := newReport("dlu", res.Nodes, res.Elapsed, flops, res.Stats)
		maxErr := luResidual(n, a, LUResult{L: res.L, U: res.U, Perm: res.Perm})
		rep.Metrics["max_error"] = maxErr
		rep.Metrics["swaps"] = float64(res.Swaps)
		if maxErr > 1e-9*float64(n) {
			return rep, fmt.Errorf("workloads: DLU residual %g", maxErr)
		}
		rep.Summary = fmt.Sprintf("DLU %d×%d on %d nodes: %v simulated, %d row swaps",
			n, n, res.Nodes, res.Elapsed, res.Swaps)
		return rep, nil
	})
}

// DistributedLU factors an N×N matrix over a dim-cube with rows dealt
// round-robin (row-cyclic distribution, the standard layout for
// distributed dense LU). Each step k:
//
//  1. every node scans its own rows ≥ k for the largest |A[i][k]|
//     (timed word-port reads, as the control processor would);
//  2. an all-reduce picks the global pivot; the pivot row and row k are
//     exchanged — physically, via the row port, when they share a node,
//     or by a link exchange when they do not;
//  3. the pivot owner broadcasts the pivot row; every node eliminates
//     its rows below k with one SAXPY per row on its vector unit.
//
// The factors satisfy P·A = L·U with unit lower-triangular L.
func DistributedLU(ctx context.Context, dim, n int, a [][]float64) (DLUResult, error) {
	if n <= 0 || n > memory.F64PerRow {
		return DLUResult{}, fmt.Errorf("workloads: DLU size 1..%d", memory.F64PerRow)
	}
	m, err := machine.NewAuto(ctx, dim, KernelShardsFrom(ctx))
	if err != nil {
		return DLUResult{}, err
	}
	nNodes := len(m.Nodes)

	// Row-cyclic layout: global row g lives on node g%P at local slot
	// g/P. U rows at memory row 300+slot, L rows at 600+slot, broadcast
	// buffer at row 0 (bank A).
	const (
		uBase = 300
		lBase = 600
		bRow  = 0
	)
	owner := func(g int) int { return g % nNodes }
	slot := func(g int) int { return g / nNodes }
	for g := 0; g < n; g++ {
		nd := m.Nodes[owner(g)]
		for j := 0; j < n; j++ {
			nd.Mem.PokeF64((uBase+slot(g))*memory.F64PerRow+j, fparith.FromFloat64(a[g][j]))
			nd.Mem.PokeF64((lBase+slot(g))*memory.F64PerRow+j, 0)
		}
	}

	res := DLUResult{N: n, Nodes: nNodes, Perm: make([]int, n)}
	// rowOf[k] tracks which original slot holds current row k after
	// permutations; we permute physically, so Perm tracks origins.
	for i := range res.Perm {
		res.Perm[i] = i
	}
	errs := make([]error, nNodes)
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(nodeID)
		nd := m.Nodes[nodeID]
		fail := func(err error) { errs[nodeID] = err }
		m.GoNode(nodeID, fmt.Sprintf("dlu/n%d", nodeID), func(p *sim.Proc) {
			var scratch memory.VectorReg
			for kk := 0; kk < n; kk++ {
				tagBase := 10000 + kk*64
				// 1. Local pivot candidate among my rows ≥ kk.
				bestMag := fparith.F64(0)
				bestRow := -1
				for g := kk; g < n; g++ {
					if owner(g) != nodeID {
						continue
					}
					v, err := nd.Mem.Read64(p, (uBase+slot(g))*memory.F64PerRow+kk)
					if err != nil {
						fail(err)
						return
					}
					if bestRow == -1 || fparith.Cmp64(fparith.Abs64(v), bestMag) == 1 {
						bestMag, bestRow = fparith.Abs64(v), g
					}
				}
				// 2. Global pivot: all-reduce (magnitude, row) pairs;
				// encode the row in the low bits of a second element.
				cand := []fparith.F64{bestMag, fparith.FromInt64(int64(bestRow))}
				if bestRow == -1 {
					cand = []fparith.F64{0, fparith.FromInt64(int64(n))}
				}
				win, err := e.AllReduceBestF64(p, tagBase, betterPivot, cand)
				if err != nil {
					fail(err)
					return
				}
				pivRow := int(fparith.ToInt64(win[1]))
				if pivRow >= n || fparith.IsZero64(win[0]) {
					fail(fmt.Errorf("workloads: DLU singular at step %d", kk))
					return
				}
				// 3. Swap rows kk and pivRow if needed.
				if pivRow != kk {
					if nodeID == 0 {
						res.Swaps++
						res.Perm[kk], res.Perm[pivRow] = res.Perm[pivRow], res.Perm[kk]
					}
					if err := swapGlobalRows(p, e, nd, nodeID, owner, slot, uBase, kk, pivRow, n, tagBase+8, &scratch); err != nil {
						fail(err)
						return
					}
					if err := swapGlobalRows(p, e, nd, nodeID, owner, slot, lBase, kk, pivRow, n, tagBase+16, &scratch); err != nil {
						fail(err)
						return
					}
				}
				// 4. Pivot owner broadcasts row kk and the pivot value.
				var payload []fparith.F64
				if owner(kk) == nodeID {
					payload = make([]fparith.F64, n)
					for j := 0; j < n; j++ {
						payload[j] = nd.Mem.PeekF64((uBase+slot(kk))*memory.F64PerRow + j)
					}
					nd.Mem.PokeF64((lBase+slot(kk))*memory.F64PerRow+kk, fparith.FromFloat64(1))
				}
				prow, err := e.BroadcastF64(p, owner(kk), tagBase+24, payload)
				if err != nil {
					fail(err)
					return
				}
				pivot := prow[kk]
				for j := 0; j < n; j++ {
					nd.Mem.PokeF64(bRow*memory.F64PerRow+j, prow[j])
				}
				// 5. Eliminate my rows below kk.
				for g := kk + 1; g < n; g++ {
					if owner(g) != nodeID {
						continue
					}
					aik, err := nd.Mem.Read64(p, (uBase+slot(g))*memory.F64PerRow+kk)
					if err != nil {
						fail(err)
						return
					}
					factor := fparith.Div64(aik, pivot)
					nd.Mem.Write64(p, (lBase+slot(g))*memory.F64PerRow+kk, factor)
					if _, err := nd.RunForm(p, fpu.Op{
						Form: fpu.SAXPY, Prec: fpu.P64,
						A: fparith.Neg64(factor), X: bRow, Y: uBase + slot(g), Z: uBase + slot(g), N: n,
					}); err != nil {
						fail(err)
						return
					}
					nd.Mem.PokeF64((uBase+slot(g))*memory.F64PerRow+kk, 0)
				}
			}
		})
	}
	end := m.Run(0)
	if err := m.Err(); err != nil {
		return DLUResult{}, err // canceled: results are partial
	}
	if err := firstErr(errs); err != nil {
		return DLUResult{}, err
	}
	res.Elapsed = sim.Duration(end)
	res.Stats = m.SimStats()

	// Collect factors.
	res.L = make([][]float64, n)
	res.U = make([][]float64, n)
	for g := 0; g < n; g++ {
		nd := m.Nodes[owner(g)]
		res.L[g] = make([]float64, n)
		res.U[g] = make([]float64, n)
		for j := 0; j < n; j++ {
			res.L[g][j] = nd.Mem.PeekF64((lBase+slot(g))*memory.F64PerRow + j).Float64()
			res.U[g][j] = nd.Mem.PeekF64((uBase+slot(g))*memory.F64PerRow + j).Float64()
		}
	}
	return res, nil
}

// betterPivot compares (magnitude, row) candidates: larger magnitude
// wins; equal magnitudes break toward the lower row so every node picks
// the same pivot deterministically.
func betterPivot(a, b []fparith.F64) bool {
	switch fparith.Cmp64(a[0], b[0]) {
	case 1:
		return true
	case 0:
		return fparith.ToInt64(a[1]) < fparith.ToInt64(b[1])
	}
	return false
}

// swapGlobalRows exchanges global rows r1 and r2 of the distributed
// matrix based at `base`. Same owner: physical row-port moves. Different
// owners: a pairwise link exchange of full rows.
func swapGlobalRows(p *sim.Proc, e *comm.Endpoint, nd *node.Node, nodeID int,
	owner func(int) int, slot func(int) int, base, r1, r2, n, tag int,
	scratch *memory.VectorReg) error {
	o1, o2 := owner(r1), owner(r2)
	if o1 == o2 {
		if nodeID != o1 {
			return nil
		}
		// Physical exchange through a vector register.
		m := nd.Mem
		var reg2 memory.VectorReg
		if err := m.LoadRow(p, base+slot(r1), scratch); err != nil {
			return err
		}
		if err := m.LoadRow(p, base+slot(r2), &reg2); err != nil {
			return err
		}
		if err := m.StoreRow(p, base+slot(r1), &reg2); err != nil {
			return err
		}
		return m.StoreRow(p, base+slot(r2), scratch)
	}
	var mine, peer int
	switch nodeID {
	case o1:
		mine, peer = slot(r1), o2
	case o2:
		mine, peer = slot(r2), o1
	default:
		return nil
	}
	m := nd.Mem
	row := make([]fparith.F64, n)
	for j := 0; j < n; j++ {
		row[j] = m.PeekF64((base+mine)*memory.F64PerRow + j)
	}
	if err := e.SendF64(p, peer, tag, row); err != nil {
		return err
	}
	src, incoming := e.RecvF64(p, tag)
	if src != peer {
		return fmt.Errorf("workloads: row swap heard %d, want %d", src, peer)
	}
	for j := 0; j < n; j++ {
		m.PokeF64((base+mine)*memory.F64PerRow+j, incoming[j])
	}
	return nil
}
