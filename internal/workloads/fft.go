package workloads

import (
	"context"

	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

// Complex is a simulator complex number (real and imaginary F64 parts).
type Complex struct{ Re, Im fparith.F64 }

func cadd(a, b Complex) Complex {
	return Complex{fparith.Add64(a.Re, b.Re), fparith.Add64(a.Im, b.Im)}
}

func csub(a, b Complex) Complex {
	return Complex{fparith.Sub64(a.Re, b.Re), fparith.Sub64(a.Im, b.Im)}
}

func cmul(a, b Complex) Complex {
	return Complex{
		fparith.Sub64(fparith.Mul64(a.Re, b.Re), fparith.Mul64(a.Im, b.Im)),
		fparith.Add64(fparith.Mul64(a.Re, b.Im), fparith.Mul64(a.Im, b.Re)),
	}
}

// FFTResult reports a distributed radix-2 FFT.
type FFTResult struct {
	N       int
	Nodes   int
	Elapsed sim.Duration
	Out     []complex128 // natural order, for verification
	Stats   sim.Stats    // engine metrics at completion
}

func init() {
	RegisterFunc("fft", []string{"dim", "n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		in := make([]complex128, cfg.N)
		for i := range in {
			in[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		res, err := DistributedFFT(cfg.Context(), cfg.Dim, in)
		if err != nil {
			return Report{}, err
		}
		// Nominal radix-2 count: N/2 butterflies × log₂N stages × 10
		// real operations each.
		flops := int64(cfg.N/2) * int64(bits.Len(uint(cfg.N))-1) * 10
		rep := newReport("fft", res.Nodes, res.Elapsed, flops, res.Stats)
		want := HostDFT(in)
		maxErr := 0.0
		for i := range want {
			if e := cmplx.Abs(res.Out[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		rep.Metrics["max_error"] = maxErr
		if maxErr > 1e-6 {
			return rep, fmt.Errorf("workloads: fft result off by %g", maxErr)
		}
		rep.Summary = fmt.Sprintf("FFT %d points on %d nodes: %v simulated",
			res.N, res.Nodes, res.Elapsed)
		return rep, nil
	})
}

// DistributedFFT computes an N-point decimation-in-frequency FFT across
// the nodes of a dim-cube with block distribution. The first dim stages
// pair elements on different nodes: each pair of partner nodes exchanges
// its block over the cube link for that dimension — Figure 3's
// observation that "FFT butterfly connections of radix 2" map onto the
// n-cube with every exchange nearest-neighbor. Remaining stages are
// node-local. Twiddle factors come from a host-computed ROM, as the
// machine would hold them in constant tables.
func DistributedFFT(ctx context.Context, dim int, in []complex128) (FFTResult, error) {
	n := len(in)
	if n == 0 || n&(n-1) != 0 {
		return FFTResult{}, fmt.Errorf("workloads: FFT size must be a power of two")
	}
	m, err := machine.NewAuto(ctx, dim, KernelShardsFrom(ctx))
	if err != nil {
		return FFTResult{}, err
	}
	nNodes := len(m.Nodes)
	if n%nNodes != 0 || n/nNodes < 1 || (n/nNodes)&(n/nNodes-1) != 0 {
		return FFTResult{}, fmt.Errorf("workloads: FFT size %d not block-distributable over %d nodes", n, nNodes)
	}
	local := n / nNodes
	if 1<<uint(dim) != nNodes {
		return FFTResult{}, fmt.Errorf("workloads: internal node count mismatch")
	}

	// Local blocks as simulator values.
	blocks := make([][]Complex, nNodes)
	for id := range blocks {
		blocks[id] = make([]Complex, local)
		for j := range blocks[id] {
			v := in[id*local+j]
			blocks[id][j] = Complex{fparith.FromFloat64(real(v)), fparith.FromFloat64(imag(v))}
		}
	}

	// Twiddle ROM: w[j] = exp(-2πi·j/N) for j < N/2.
	rom := make([]Complex, n/2)
	for j := range rom {
		ang := -2 * math.Pi * float64(j) / float64(n)
		rom[j] = Complex{fparith.FromFloat64(math.Cos(ang)), fparith.FromFloat64(math.Sin(ang))}
	}

	errs := make([]error, nNodes)
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(nodeID)
		fail := func(err error) { errs[nodeID] = err }
		m.GoNode(nodeID, fmt.Sprintf("fft/n%d", nodeID), func(p *sim.Proc) {
			mine := blocks[nodeID]
			// Distributed stages: butterfly distance D = N/2 … local.
			stage := 0
			for dist := n / 2; dist >= local; dist /= 2 {
				partner := nodeID ^ (dist / local)
				// Exchange whole blocks with the partner.
				payload := make([]fparith.F64, 2*local)
				for j, c := range mine {
					payload[2*j], payload[2*j+1] = c.Re, c.Im
				}
				if err := e.SendF64(p, partner, 2000+stage*16, payload); err != nil {
					fail(err)
					return
				}
				src, theirsRaw := e.RecvF64(p, 2000+stage*16)
				if src != partner {
					fail(fmt.Errorf("fft: node %d stage %d heard %d, want %d", nodeID, stage, src, partner))
					return
				}
				theirs := make([]Complex, local)
				for j := range theirs {
					theirs[j] = Complex{theirsRaw[2*j], theirsRaw[2*j+1]}
				}
				lowSide := nodeID&(dist/local) == 0
				for j := 0; j < local; j++ {
					g := nodeID*local + j // global index
					var a, b Complex
					if lowSide {
						a, b = mine[j], theirs[j]
					} else {
						a, b = theirs[j], mine[j]
					}
					tw := rom[(g%dist)*(n/(2*dist))]
					if lowSide {
						mine[j] = cadd(a, b)
					} else {
						mine[j] = cmul(csub(a, b), tw)
					}
				}
				// The butterfly arithmetic runs at pipeline rate: two
				// complex ops (4 real add/sub + 4 mul on half) per
				// element; charge one cycle per real operation.
				p.Wait(sim.Duration(local*4) * sim.Cycle)
				stage++
			}
			// Local stages.
			for dist := min(local/2, n/2); dist >= 1; dist /= 2 {
				for j := 0; j < local; j++ {
					if j&dist != 0 {
						continue
					}
					g := nodeID*local + j
					a := mine[j]
					b := mine[j|dist]
					tw := rom[(g%dist)*(n/(2*dist))]
					mine[j] = cadd(a, b)
					mine[j|dist] = cmul(csub(a, b), tw)
				}
				p.Wait(sim.Duration(local*3) * sim.Cycle)
			}
		})
	}
	end := m.Run(0)
	if err := m.Err(); err != nil {
		return FFTResult{}, err // canceled: results are partial
	}
	if err := firstErr(errs); err != nil {
		return FFTResult{}, err
	}

	// Collect; DIF leaves results in bit-reversed order.
	res := FFTResult{N: n, Nodes: nNodes, Elapsed: sim.Duration(end), Stats: m.SimStats()}
	res.Out = make([]complex128, n)
	total := bits.Len(uint(n)) - 1
	for id := range blocks {
		for j, c := range blocks[id] {
			g := id*local + j
			natural := reverseBits(g, total)
			res.Out[natural] = complex(c.Re.Float64(), c.Im.Float64())
		}
	}
	return res, nil
}

func reverseBits(x, width int) int {
	r := 0
	for i := 0; i < width; i++ {
		r = r<<1 | (x>>uint(i))&1
	}
	return r
}

// HostDFT is the O(N²) reference transform in host arithmetic. The
// complex product is written out by parts, each real product rounded on
// its own, so no port fuses a multiply into the adds.
func HostDFT(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	for kk := 0; kk < n; kk++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(kk) * float64(j) / float64(n)
			c, s, x := math.Cos(ang), math.Sin(ang), in[j]
			acc += complex(float64(real(x)*c)-float64(imag(x)*s), float64(real(x)*s)+float64(imag(x)*c))
		}
		out[kk] = acc
	}
	return out
}
