package workloads

import (
	"context"
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// The 4-D lattice workload: the QCD-shaped computation the T Series'
// contemporaries (Columbia, QCDSP) were built for, and the natural
// exerciser of the paper's largest configurations. An N×N×N×N scalar
// field relaxes under an 8-neighbor Jacobi sweep (the nearest-neighbor
// coupling of a 4-D lattice action), block-decomposed over a 4-D mesh
// of processors embedded in the cube by Gray coding — every halo
// exchange is a single-hop cube message, on machines from the 8-cube to
// the paper's maximum usable 12-cube (4096 nodes).
//
// Unlike the 2-D stencil (which keeps its field in host slices), the
// lattice field lives in node memory: each node's block occupies a few
// rows of its 1 MB store, which is what makes the 4096-node run
// feasible — the sparse row layout materializes only those rows, and
// the run doubles as the measurement of that footprint.

// latticeTagBase starts the fixed mailbox-tag window for halo traffic.
// Odd and even iterations alternate between two banks of eight
// direction tags, so a run of any length uses sixteen mailboxes per
// endpoint. Two banks suffice: a node cannot begin the phase-p exchange
// of iteration it+2 until every phase-p message of iteration it has
// been drained from its mailboxes (its own receives of iteration it+1
// require its neighbors to have finished iteration it's receives).
const latticeTagBase = 7000

// maxLatticeSites caps the per-node block so the softfloat site loop
// stays tractable on the host. 4096 sites × 8 bytes is 32 rows per
// field copy — still a small fraction of the node's 1024 rows.
const maxLatticeSites = 4096

// LatticeResult reports a distributed 4-D lattice relaxation.
type LatticeResult struct {
	Side    int    // lattice extent per axis (N in N^4)
	Dim     int    // cube dimension used
	Px      [4]int // processors per axis
	Nodes   int
	Sites   int // sites per node
	Iters   int
	Elapsed sim.Duration
	Field   []fparith.F64 // final field, flattened row-major, for bitwise verification
	Rows    float64       // mean materialized node-memory rows per node
	Mem     machine.MemStats
	Stats   sim.Stats
}

// latticeSide clamps a requested lattice side to the largest feasible
// one for dim: a multiple of the widest mesh axis (which every narrower
// power-of-two axis then also divides) whose per-node block stays within
// the site cap. The registry runner clamps so `-workload lattice` works
// at any -dim/-n combination; direct DistributedLattice4D callers get
// strict errors instead.
func latticeSide(dim, want int) int {
	px := latticeAxes(dim)
	if want > 256 {
		want = 256 // side^4 stays far from overflow
	}
	side := want - want%px[0]
	for side > 0 && side*side*side*side > maxLatticeSites<<dim {
		side -= px[0]
	}
	if side <= 0 {
		side = px[0]
	}
	return side
}

func init() {
	RegisterFunc("lattice", []string{"dim", "n", "iters", "seed"}, func(cfg Config) (Report, error) {
		res, err := DistributedLattice4D(cfg.Context(), cfg.Dim, latticeSide(cfg.Dim, cfg.N), cfg.Iters, cfg.Seed)
		if err != nil {
			return Report{}, err
		}
		// Nominal count: 7 adds + 1 multiply per site per sweep.
		n4 := int64(res.Side) * int64(res.Side) * int64(res.Side) * int64(res.Side)
		flops := n4 * 8 * int64(res.Iters)
		rep := newReport("lattice", res.Nodes, res.Elapsed, flops, res.Stats)
		want := HostLattice4D(res.Side, res.Iters, cfg.Seed)
		bad := 0
		for i := range want {
			if res.Field[i] != want[i] {
				bad++
			}
		}
		rep.Metrics["mismatched_sites"] = float64(bad)
		rep.Metrics["rows_per_node"] = res.Rows
		rep.Metrics["mem_resident_mb"] = float64(res.Mem.MemResidentBytes) / (1 << 20)
		rep.Metrics["cow_copies"] = float64(res.Mem.CowCopies)
		mem := res.Mem
		rep.Mem = &mem
		if bad > 0 {
			return rep, fmt.Errorf("workloads: lattice result differs from reference at %d of %d sites", bad, len(want))
		}
		rep.Summary = fmt.Sprintf("Lattice %d^4, %d sweeps on %d nodes (%d^4 mesh %dx%dx%dx%d): %v simulated, %.1f rows/node resident",
			res.Side, res.Iters, res.Nodes, res.Side, res.Px[0], res.Px[1], res.Px[2], res.Px[3], res.Elapsed, res.Rows)
		return rep, nil
	})
}

// latticeAxes splits a cube dimension over four mesh axes as evenly as
// possible: dim = 12 gives an 8×8×8×8 processor mesh.
func latticeAxes(dim int) [4]int {
	base, rem := dim/4, dim%4
	var px [4]int
	for i := range px {
		d := base
		if i < rem {
			d++
		}
		px[i] = 1 << d
	}
	return px
}

// latticeInit is the deterministic initial field: a splitmix64-style
// hash of (seed, site) scaled into [0, 1), so every node can generate
// its own block and the reference can generate the whole lattice
// without communication.
func latticeInit(seed int64, site int) fparith.F64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(site+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return fparith.FromFloat64(float64(z>>11) / (1 << 53))
}

// DistributedLattice4D runs `iters` Jacobi sweeps of the 4-D 8-point
// lattice stencil on an N^4 field with zero Dirichlet boundaries,
// distributed over the 2^dim-node machine. Each node holds a
// (N/px0)×(N/px1)×(N/px2)×(N/px3) block in its own node memory (two
// copies, current and next, swapped each sweep) and exchanges the eight
// face halos with its mesh neighbors each iteration. The machine runs
// one logical shard per module, so above one module the same run
// exercises the conservative parallel kernel at every scale.
func DistributedLattice4D(ctx context.Context, dim, side, iters int, seed int64) (LatticeResult, error) {
	px := latticeAxes(dim)
	mesh, err := cube.NewMesh(px[0], px[1], px[2], px[3])
	if err != nil {
		return LatticeResult{}, err
	}
	if mesh.CubeDim() != dim {
		return LatticeResult{}, fmt.Errorf("workloads: lattice mesh covers a %d-cube, want %d", mesh.CubeDim(), dim)
	}
	var l [4]int
	sites := 1
	for i := range px {
		if side%px[i] != 0 {
			return LatticeResult{}, fmt.Errorf("workloads: lattice side %d not divisible by %d processors on axis %d (pick -n a multiple of %d)", side, px[i], i, px[0])
		}
		l[i] = side / px[i]
		sites *= l[i]
	}
	if sites > maxLatticeSites {
		return LatticeResult{}, fmt.Errorf("workloads: %d sites per node exceeds the %d-site block cap (shrink -n or grow -dim)", sites, maxLatticeSites)
	}
	// Local strides, axis 3 innermost; the same layout flattens faces.
	var ls [4]int
	ls[3] = 1
	ls[2] = l[3]
	ls[1] = l[2] * l[3]
	ls[0] = l[1] * l[2] * l[3]
	// Reduced strides index within a face of fixed axis a: positions
	// follow the same lexicographic order as site indices, so sender and
	// receiver agree on face layout without metadata.
	var rs [4][4]int
	for a := 0; a < 4; a++ {
		stride := 1
		for j := 3; j >= 0; j-- {
			if j == a {
				continue
			}
			rs[a][j] = stride
			stride *= l[j]
		}
	}

	m, err := machine.NewAuto(ctx, dim, KernelShardsFrom(ctx))
	if err != nil {
		return LatticeResult{}, err
	}

	// Field placement in node memory, in 64-bit elements: current copy
	// at the base of the store, next copy on the following row boundary.
	fieldRows := (sites*8 + memory.RowBytes - 1) / memory.RowBytes
	base := [2]int{0, fieldRows * memory.F64PerRow}

	coordOf := make([][]int, len(m.Nodes))
	for id := range m.Nodes {
		coordOf[id] = mesh.Coord(id)
	}
	// Seed each node's block (untimed setup, like loading the problem
	// from the host before the run).
	for id, nd := range m.Nodes {
		c := coordOf[id]
		for s := 0; s < sites; s++ {
			var g [4]int
			rem := s
			for a := 0; a < 4; a++ {
				g[a] = c[a]*l[a] + rem/ls[a]
				rem %= ls[a]
			}
			site := ((g[0]*side+g[1])*side+g[2])*side + g[3]
			nd.Mem.PokeF64(base[0]+s, latticeInit(seed, site))
		}
	}

	eighth := fparith.FromFloat64(0.125)
	errs := make([]error, len(m.Nodes))
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(nodeID)
		mem := m.Nodes[nodeID].Mem
		c := coordOf[nodeID]
		// Neighbor nodes and face site lists per direction d = axis*2 +
		// side (side 0 = toward coordinate−1, 1 = toward +1).
		var nbr [8]int
		var exists [8]bool
		var face [8][]int
		for d := 0; d < 8; d++ {
			a, s := d/2, d%2
			nc := append([]int(nil), c...)
			if s == 0 {
				nc[a]--
				exists[d] = c[a] > 0
			} else {
				nc[a]++
				exists[d] = c[a] < px[a]-1
			}
			if exists[d] {
				if nbr[d], err = mesh.Node(nc...); err != nil {
					return LatticeResult{}, err
				}
			}
			// Sites on my d-face (the one sent toward d), site-index order.
			fixed := 0
			if s == 1 {
				fixed = l[a] - 1
			}
			for s2 := 0; s2 < sites; s2++ {
				if (s2/ls[a])%l[a] == fixed {
					face[d] = append(face[d], s2)
				}
			}
		}
		m.GoNode(nodeID, fmt.Sprintf("lattice/n%d", nodeID), func(p *sim.Proc) {
			var halo [8][]fparith.F64
			for it := 0; it < iters; it++ {
				cur, next := base[it&1], base[(it+1)&1]
				bank := latticeTagBase + (it&1)*8
				// Send all eight faces, then receive all eight: my d-face
				// arrives at the neighbor as their mirror(d) halo, and
				// d^1 is that mirror.
				for d := 0; d < 8; d++ {
					if !exists[d] {
						continue
					}
					out := make([]fparith.F64, len(face[d]))
					for i, s := range face[d] {
						out[i] = mem.PeekF64(cur + s)
					}
					if err := e.SendF64(p, nbr[d], bank+(d^1), out); err != nil {
						errs[nodeID] = err
						return
					}
				}
				for d := 0; d < 8; d++ {
					halo[d] = nil
					if !exists[d] {
						continue
					}
					src, data := e.RecvF64(p, bank+d)
					if src != nbr[d] {
						errs[nodeID] = fmt.Errorf("lattice: node %d heard %d on direction %d, want %d", nodeID, src, d, nbr[d])
						return
					}
					halo[d] = data
				}
				// Sweep: next = 1/8 × Σ over the eight lattice neighbors,
				// in fixed direction order; off-machine neighbors are the
				// zero Dirichlet boundary.
				for s := 0; s < sites; s++ {
					var x [4]int
					rem := s
					for a := 0; a < 4; a++ {
						x[a] = rem / ls[a]
						rem %= ls[a]
					}
					var sum fparith.F64
					for d := 0; d < 8; d++ {
						a, sd := d/2, d%2
						var v fparith.F64
						switch {
						case sd == 0 && x[a] > 0:
							v = mem.PeekF64(cur + s - ls[a])
						case sd == 1 && x[a] < l[a]-1:
							v = mem.PeekF64(cur + s + ls[a])
						case exists[d]:
							pos := 0
							for j := 0; j < 4; j++ {
								if j != a {
									pos += x[j] * rs[a][j]
								}
							}
							v = halo[d][pos]
						default:
							continue // zero boundary: adding 0 to a finite sum is identity
						}
						sum = fparith.Add64(sum, v)
					}
					mem.PokeF64(next+s, fparith.Mul64(eighth, sum))
				}
				// Nominal charge: pipeline-rate arithmetic (8 ops/site at
				// one result per cycle) plus one row transfer per field
				// row each way between store and vector unit.
				p.Wait(sim.Duration(sites*8)*sim.Cycle + sim.Duration(2*fieldRows)*sim.RowAccess)
			}
		})
	}

	end := m.Run(0)
	if err := m.Err(); err != nil {
		return LatticeResult{}, err
	}
	if err := firstErr(errs); err != nil {
		return LatticeResult{}, err
	}

	res := LatticeResult{
		Side: side, Dim: dim, Px: px, Nodes: len(m.Nodes), Sites: sites,
		Iters: iters, Elapsed: sim.Duration(end), Stats: m.SimStats(),
	}
	fin := base[iters&1]
	res.Field = make([]fparith.F64, side*side*side*side)
	for id, nd := range m.Nodes {
		c := coordOf[id]
		for s := 0; s < sites; s++ {
			var g [4]int
			rem := s
			for a := 0; a < 4; a++ {
				g[a] = c[a]*l[a] + rem/ls[a]
				rem %= ls[a]
			}
			res.Field[((g[0]*side+g[1])*side+g[2])*side+g[3]] = nd.Mem.PeekF64(fin + s)
		}
	}
	res.Mem = m.MemStats()
	res.Rows = float64(res.Mem.RowsMaterialized) / float64(len(m.Nodes))
	return res, nil
}

// HostLattice4D is the reference sweep: the same fparith arithmetic in
// the same per-site order on the undecomposed lattice, so the
// distributed result must match bit for bit.
func HostLattice4D(side, iters int, seed int64) []fparith.F64 {
	n := side * side * side * side
	cur := make([]fparith.F64, n)
	next := make([]fparith.F64, n)
	for i := range cur {
		cur[i] = latticeInit(seed, i)
	}
	st := [4]int{side * side * side, side * side, side, 1}
	eighth := fparith.FromFloat64(0.125)
	for it := 0; it < iters; it++ {
		for s := 0; s < n; s++ {
			var x [4]int
			rem := s
			for a := 0; a < 4; a++ {
				x[a] = rem / st[a]
				rem %= st[a]
			}
			var sum fparith.F64
			for d := 0; d < 8; d++ {
				a, sd := d/2, d%2
				switch {
				case sd == 0 && x[a] > 0:
					sum = fparith.Add64(sum, cur[s-st[a]])
				case sd == 1 && x[a] < side-1:
					sum = fparith.Add64(sum, cur[s+st[a]])
				}
			}
			next[s] = fparith.Mul64(eighth, sum)
		}
		cur, next = next, cur
	}
	return cur
}
