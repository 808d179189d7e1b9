package workloads

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tseries/internal/fault"
	"tseries/internal/machine"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// Config carries every knob a workload can consume. Each Runner reads
// only the fields named by its Flags; the rest are ignored, so one
// Config drives any workload in the registry. Inputs (matrices, signal
// samples, sort keys) are generated deterministically from Seed.
type Config struct {
	Dim    int          // cube dimension (2^Dim nodes)
	N      int          // problem size: matrix order, FFT points, grid side, record count
	Rows   int          // SAXPY rows per node
	Iters  int          // stencil iterations
	Reps   int          // SAXPY sweep repetitions
	Phases int          // recovery workload phases
	Seed   int64        // input generator seed
	Pad    sim.Duration // per-phase synthetic compute time (recovery, soak)
	Ckpt   sim.Duration // periodic checkpoint interval (recovery; 0 = initial only)
	Faults *fault.Plan  // optional fault plan (recovery)
	Chaos  *fault.Chaos // optional randomized chaos recipe (soak)

	// Ctx optionally bounds the run: when it is canceled, the workload's
	// kernel tears the simulation down at the next event boundary and Run
	// returns the context's error. Nil means context.Background(). Ctx
	// shapes how a run is hosted, not what it computes, so it is excluded
	// from result-cache keys (internal/serve).
	Ctx context.Context `json:"-"`

	// KernelShards asks the workload's kernel to execute on up to this
	// many host workers (sim.ShardGroup physical parallelism). It is a
	// hosting knob, not a model parameter: a workload's logical shard
	// partition is fixed by its geometry (Dim), so its Report is
	// byte-identical at every KernelShards value — 0 and 1 both mean one
	// worker. The machine workloads run one logical shard per module
	// (see machine.NewAuto) and map this knob onto the worker count that
	// executes the fixed shard set. Like Ctx it is excluded from
	// result-cache keys.
	KernelShards int `json:"-"`
}

// kernelShardsKey carries the host-worker request through the context
// a workload runs under, so nested builds (the soak golden twin, the
// machine constructors) see the same hosting knob as the top-level run.
type kernelShardsKey struct{}

// WithKernelShards returns a context carrying a host-worker request
// for any machine built under it.
func WithKernelShards(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, kernelShardsKey{}, n)
}

// KernelShardsFrom extracts the host-worker request from ctx (1 when
// absent).
func KernelShardsFrom(ctx context.Context) int {
	if n, ok := ctx.Value(kernelShardsKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}

// Workers resolves KernelShards to an effective worker count (≥ 1).
func (c Config) Workers() int {
	if c.KernelShards < 1 {
		return 1
	}
	return c.KernelShards
}

// Context returns the run-bounding context, never nil. It carries the
// KernelShards hosting knob so machine builds under it pick up the
// requested worker count.
func (c Config) Context() context.Context {
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if c.KernelShards > 0 {
		ctx = WithKernelShards(ctx, c.KernelShards)
	}
	return ctx
}

// DefaultConfig returns the values the tsim command starts from.
func DefaultConfig() Config {
	return Config{Dim: 3, N: 64, Rows: 100, Iters: 20, Reps: 1, Phases: 6, Seed: 1, Pad: 2 * sim.Second}
}

// RegisterFlags registers every Config knob on fs under its flag name,
// bound to c's field and defaulting to its current value. It is the one
// flag table: tsim parses its command line with it, and tsimd applies a
// job's flags through FlagSet.Set, so a value means the same to both.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Dim, "dim", c.Dim, "cube dimension (2^dim nodes)")
	fs.IntVar(&c.N, "n", c.N, "problem size (matrix order, FFT points, grid side, record count)")
	fs.IntVar(&c.Rows, "rows", c.Rows, "SAXPY rows per node")
	fs.IntVar(&c.Iters, "iters", c.Iters, "stencil iterations")
	fs.IntVar(&c.Reps, "reps", c.Reps, "SAXPY sweep repetitions")
	fs.IntVar(&c.Phases, "phases", c.Phases, "recovery workload phases")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "input generator seed")
	fs.IntVar(&c.KernelShards, "kernel-shards", c.KernelShards,
		"host workers per simulation (0/1 = one); the machine geometry fixes the logical shards, so output is byte-identical at any value")
	fs.Var((*durationValue)(&c.Pad), "pad", "per-phase synthetic compute `duration` for -workload recovery")
	fs.Var((*durationValue)(&c.Ckpt), "ckpt", "periodic checkpoint interval (a `duration`) for -workload recovery (0 = initial checkpoint only)")
	fs.Func("faults", "fault `plan`, e.g. seed=7,ber=1e-6,crash=2@12s,down=0.1@5s+2s,flip=1:4096.3@9s,disk=0.5@14s", func(s string) (err error) {
		c.Faults, err = fault.Parse(s)
		return err
	})
	fs.Func("chaos", "randomized chaos `recipe` for -workload soak, e.g. seed=7,dur=60s,crashes=2,hangs=1", func(s string) (err error) {
		c.Chaos, err = fault.ParseChaos(s)
		return err
	})
}

// durationValue is a sim.Duration flag written as time.ParseDuration
// reads it ("2s", "1500ms"), at nanosecond resolution.
type durationValue sim.Duration

func (d *durationValue) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = durationValue(sim.Duration(v.Nanoseconds()) * sim.Nanosecond)
	return nil
}

func (d *durationValue) String() string {
	return time.Duration(sim.Duration(*d) / sim.Nanosecond).String()
}

// Report is the uniform outcome of one workload run: wall measurements
// off the simulated clock, operation and traffic totals, and the
// engine-level kernel statistics, so every workload reports through one
// shape regardless of what it computes.
type Report struct {
	Workload string             // registry name
	Nodes    int                // processors used
	Elapsed  sim.Duration       // simulated wall time
	Flops    int64              // floating-point operations performed (nominal count)
	Bytes    int64              // payload bytes carried by the serial links
	Metrics  map[string]float64 // workload-specific named scalars
	Kernel   sim.Stats          // engine metrics: events, parks, resource utilization
	Summary  string             // one-line human-readable result

	// Mem carries the machine's host-footprint counters (sparse node
	// memory, dedup'd disk) for workloads that run on a full machine;
	// nil for workloads that report only kernel statistics. It rides
	// outside Metrics so aggregators (the tsimd stats endpoint) get
	// typed integers rather than formatted floats, and outside String()
	// so run output stays byte-stable.
	Mem *machine.MemStats `json:"mem,omitempty"`
}

// MFLOPS is the achieved aggregate arithmetic rate.
func (r Report) MFLOPS() float64 { return stats.MFLOPS(r.Flops, r.Elapsed) }

// LinkMBps is the achieved aggregate link payload rate.
func (r Report) LinkMBps() float64 { return stats.MBps(r.Bytes, r.Elapsed) }

// String renders the report: the summary line plus the kernel metrics.
func (r Report) String() string {
	var b strings.Builder
	b.WriteString(r.Summary)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "\n  %-24s %.6g", k, r.Metrics[k])
		}
	}
	fmt.Fprintf(&b, "\n  kernel: %s", r.Kernel)
	return b.String()
}

// newReport seeds a Report with the fields every workload shares.
func newReport(name string, nodes int, elapsed sim.Duration, flops int64, ks sim.Stats) Report {
	return Report{
		Workload: name,
		Nodes:    nodes,
		Elapsed:  elapsed,
		Flops:    flops,
		Bytes:    ks.Counters["link.bytes"],
		Metrics:  map[string]float64{},
		Kernel:   ks,
	}
}

// firstErr returns the lowest-numbered node's error, or nil. Workload
// processes record failures in per-node slots: processes on different
// shards of a machine must not share a Go variable.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sum64 totals per-node counters.
func sum64(vs []int64) int64 {
	var t int64
	for _, v := range vs {
		t += v
	}
	return t
}

// Runner is one registered workload. Run must be deterministic for a
// given Config (workloads build their own Kernel, so concurrent Runs on
// distinct Configs are independent) and must return an error when the
// workload's own verification fails.
type Runner interface {
	Name() string
	Flags() []string // Config fields the workload consumes, as tsim flag names
	Run(cfg Config) (Report, error)
}

// funcRunner adapts a plain function to the Runner interface.
type funcRunner struct {
	name  string
	flags []string
	run   func(Config) (Report, error)
}

func (f funcRunner) Name() string                   { return f.name }
func (f funcRunner) Flags() []string                { return append([]string(nil), f.flags...) }
func (f funcRunner) Run(cfg Config) (Report, error) { return f.run(cfg) }

var registry = map[string]Runner{}

// Register adds a workload to the registry; duplicate names are a
// programming error.
func Register(r Runner) {
	if _, dup := registry[r.Name()]; dup {
		panic("workloads: duplicate runner " + r.Name())
	}
	registry[r.Name()] = r
}

// RegisterFunc registers a workload implemented as a bare function.
func RegisterFunc(name string, flags []string, run func(Config) (Report, error)) {
	Register(funcRunner{name: name, flags: flags, run: run})
}

// Names lists the registered workloads in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get resolves a workload by name; the error lists the valid names.
func Get(name string) (Runner, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return r, nil
}

// Runners returns the registered workloads sorted by name.
func Runners() []Runner {
	rs := make([]Runner, 0, len(registry))
	for _, n := range Names() {
		rs = append(rs, registry[n])
	}
	return rs
}

// Deterministic input generators shared by the runners. Every workload
// derives its inputs from Config.Seed through these, so a (name, Config)
// pair fully determines a run.

// randMat draws an n×n standard-normal matrix.
func randMat(r *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = r.NormFloat64()
		}
	}
	return m
}

// randMatDD draws an n×n matrix with a boosted diagonal, comfortably
// nonsingular for factorisation workloads.
func randMatDD(r *rand.Rand, n int) [][]float64 {
	m := randMat(r, n)
	for i := range m {
		m[i][i] += float64(n)
	}
	return m
}
