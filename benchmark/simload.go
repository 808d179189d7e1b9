package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"tseries/internal/fault"
	"tseries/internal/machine"
	"tseries/internal/sim"
	"tseries/internal/workloads"
)

// kernelShards is the host worker count every sim workload runs with:
// the benchmark host has two CPUs and nothing else runs beside it.
const kernelShards = 2

// The sim workloads run every operation (one Runner.Run) in a fresh
// child process of the benchmark binary, which is what a tsim user
// pays per run. A child started with opEnv set to a JSON opSpec runs
// that one operation and prints an opResult. In-process repetition
// would measure a different program: each Runner.Run leaves its
// machine's daemon processes parked (runtime.goroutines_leaked_per_op),
// so heap, GC work and RSS would grow with every sample.
const (
	opEnv     = "TSBENCH_OP"
	opTimeout = 2 * time.Minute
)

type opSpec struct {
	Workload string
	Seed     int64
	Trace    bool
	Tiny     bool
}

type opResult struct {
	Sample sample
	Totals simTotals
}

// simOp is one sim workload: the runner, the geometry its set-up
// builds, and the configuration of one operation.
type simOp struct {
	runner workloads.Runner
	dim    int
	config func() (workloads.Config, error) // fresh per run: fault plans carry state
}

// simWorkload sizes each sim workload's operation at about a second of
// host time or less, so a run holds enough of them for a steady median.
func simWorkload(spec opSpec) (simOp, error) {
	cfg := workloads.DefaultConfig()
	cfg.KernelShards = kernelShards
	var name string
	var plan string
	switch spec.Workload {
	case "ckpt-recovery":
		// Supervised SAXPY on a 5-cube (4 modules): a checkpoint every 2
		// simulated seconds, link bit errors and one node crash.
		name, cfg.Dim, cfg.Phases, cfg.Ckpt = "recovery", 5, 8, 2*sim.Second
		if spec.Tiny {
			cfg.Dim, cfg.Phases = 3, 4
		}
		plan = fmt.Sprintf("seed=%d,ber=1e-6,crash=2@12s", spec.Seed)
	case "lattice-12cube":
		// 4-D lattice relaxation on the paper's 12-cube (4096 nodes, 512
		// logical shards).
		name, cfg.Dim, cfg.N, cfg.Iters, cfg.Seed = "lattice", 12, 16, 2, spec.Seed
		if spec.Tiny {
			cfg.Dim, cfg.N = 8, 8
		}
	case "fpu-matmul":
		// One 128×128 product on one module (serial kernel).
		name, cfg.Dim, cfg.N, cfg.Seed = "matmul", 3, 128, spec.Seed
		if spec.Tiny {
			cfg.N = 16
		}
	default:
		return simOp{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	r, err := workloads.Get(name)
	if err != nil {
		return simOp{}, err
	}
	return simOp{runner: r, dim: cfg.Dim, config: func() (workloads.Config, error) {
		c := cfg
		var err error
		if plan != "" {
			c.Faults, err = fault.Parse(plan)
		}
		return c, err
	}}, nil
}

// simBench drives a sim workload from the measuring process: set-up
// builds here, operations in children.
type simBench struct {
	simOp
	spec  opSpec
	exe   string
	first *simTotals // the first operation's totals, the run's fingerprint
}

func newSimBench(rc runConfig) (*simBench, error) {
	spec := opSpec{Workload: rc.workload, Seed: rc.seed, Tiny: rc.tiny}
	op, err := simWorkload(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &simBench{simOp: op, spec: spec, exe: exe}, nil
}

// setup times one machine.NewAuto build of the workload's geometry, then
// tears the machine down by running its kernel under a canceled context.
func (b *simBench) setup(tr *tracer) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id := tr.begin("build", 0, 0)
	t0 := time.Now()
	m, err := machine.NewAuto(ctx, b.dim, kernelShards)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	cancel()
	m.Run(0)
	return d, nil
}

// runChild runs spec in a child process of exe and returns its result.
func runChild(exe string, spec opSpec) (opResult, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return opResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), opEnv+"="+string(arg))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return opResult{}, fmt.Errorf("%s child: %w", spec.Workload, err)
	}
	var r opResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return opResult{}, fmt.Errorf("%s child output: %w", spec.Workload, err)
	}
	return r, nil
}

// sample runs one operation in a child process. The host probe runs
// here, just before the child starts: a fresh child's own first
// milliseconds (heap growth, page faults) time less steadily.
func (b *simBench) sample(tr *tracer, parent int, traced bool) (sample, error) {
	spec := b.spec
	spec.Trace = traced
	probe := hostProbe()
	id := tr.begin("op", 0, parent)
	t0 := time.Now()
	r, err := runChild(b.exe, spec)
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return sample{}, err
	}
	s := r.Sample
	// The child timed the run alone (op_ms); the sample's wall time is
	// what a tsim user pays per run, from process start to exit
	// (ops_per_s).
	s.Wall, s.Probe = wall, probe
	switch {
	case s.Failed > 0:
	case b.first == nil:
		b.first = &r.Totals
	case r.Totals.fingerprint() != b.first.fingerprint():
		s.Failed = 1
		s.Notes = append(s.Notes, fmt.Sprintf("simulated fingerprint %v differs from the first operation's %v",
			r.Totals.fingerprint(), b.first.fingerprint()))
	}
	return s, nil
}

// runOp is the child side: run one operation and print its opResult.
func runOp(specJSON string, stdout io.Writer) error {
	var spec opSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("%s: %w", opEnv, err)
	}
	op, err := simWorkload(spec)
	if err != nil {
		return err
	}
	cfg, err := op.config()
	if err != nil {
		return err
	}
	var tot simTotals
	s, err := measureIn(spec.Trace, func(s *sample) error {
		s.Ops = 1
		rep, err := op.runner.Run(cfg)
		if err != nil {
			s.Failed = 1
			s.Notes = append(s.Notes, fmt.Sprintf("%s seed %d: %v", op.runner.Name(), spec.Seed, err))
			return nil
		}
		tot = totalsOf(rep)
		return nil
	})
	if err != nil {
		return err
	}
	s.Lat = []time.Duration{s.Wall}
	s.RSSMB = peakRSSMB()
	return json.NewEncoder(stdout).Encode(opResult{Sample: s, Totals: tot})
}

func (b *simBench) layers(op time.Duration) map[string]float64 {
	t := b.first
	if t == nil {
		return nil
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	const mb = 1 << 20
	mem := t.Mem
	diskSegs := float64(mem.DiskRowsCopied + mem.DiskRowsShared + mem.DiskRowsZero)
	return map[string]float64{
		"sim.events":               float64(t.Events),
		"sim.parks":                float64(t.Parks),
		"sim.unparks":              float64(t.Unparks),
		"sim.procs_spawned":        float64(t.Spawned),
		"sim.max_queue":            float64(t.MaxQueue),
		"sim.windows":              float64(t.Windows),
		"sim.cross_shard":          float64(t.CrossShard),
		"sim.barrier_stall_ms":     float64(t.Stall) / float64(sim.Millisecond),
		"sim.elapsed_s":            t.Elapsed.Seconds(),
		"sim.ns_per_event":         ratio(float64(op.Nanoseconds()), float64(t.Events)),
		"link.mb":                  float64(t.Bytes) / mb,
		"module.checkpoints":       t.Checkpoints,
		"module.thread_drops":      float64(t.ThreadDrops),
		"module.disk_rows_copied":  float64(mem.DiskRowsCopied),
		"module.disk_rows_shared":  float64(mem.DiskRowsShared),
		"module.disk_rows_zero":    float64(mem.DiskRowsZero),
		"module.disk_logical_mb":   float64(mem.DiskLogicalBytes) / mb,
		"module.disk_resident_mb":  float64(mem.DiskResidentBytes) / mb,
		"module.disk_dedup_ratio":  ratio(float64(mem.DiskRowsShared+mem.DiskRowsZero), diskSegs),
		"machine.rollbacks":        t.Rollbacks,
		"machine.recovery_ms":      t.RecoveryMs,
		"machine.nodes":            float64(t.Nodes),
		"memory.rows_materialized": float64(mem.RowsMaterialized),
		"memory.cow_copies":        float64(mem.CowCopies),
		"memory.resident_mb":       float64(mem.MemResidentBytes) / mb,
		"fpu.flops":                float64(t.Flops),
		"fpu.sim_mflops":           ratio(float64(t.Flops)/1e6, t.Elapsed.Seconds()),
		"fpu.host_ns_per_flop":     ratio(float64(op.Nanoseconds()), float64(t.Flops)),
	}
}

func (b *simBench) close() error { return nil }

// simTotals is what an operation's report says about the simulation.
type simTotals struct {
	Elapsed, Stall                                       sim.Duration
	Events, Parks, Unparks, Spawned, Windows, CrossShard int64
	Flops, Bytes, ThreadDrops                            int64
	MaxQueue, Nodes                                      int
	Checkpoints, Rollbacks, RecoveryMs                   float64
	Mem                                                  machine.MemStats
}

func totalsOf(r workloads.Report) simTotals {
	k := r.Kernel
	t := simTotals{
		Elapsed: r.Elapsed, Stall: k.BarrierStall,
		Events: k.Events, Parks: k.Parks, Unparks: k.Unparks, Spawned: k.Spawned,
		Windows: k.Windows, CrossShard: k.CrossShard,
		Flops: r.Flops, Bytes: r.Bytes, ThreadDrops: k.Counters["module.thread_drops"],
		MaxQueue: k.MaxQueue, Nodes: r.Nodes,
		Checkpoints: r.Metrics["checkpoints"], Rollbacks: r.Metrics["rollbacks"], RecoveryMs: r.Metrics["recovery_ms"],
	}
	if r.Mem != nil {
		t.Mem = *r.Mem
	}
	return t
}

// fingerprint is the part of an operation's simulated outcome that must
// repeat exactly across the operations of one seed.
type fingerprint struct {
	ElapsedS float64
	Events   int64
	LinkMB   float64
	Flops    int64
}

func (t *simTotals) fingerprint() fingerprint {
	return fingerprint{t.Elapsed.Seconds(), t.Events, float64(t.Bytes) / (1 << 20), t.Flops}
}
