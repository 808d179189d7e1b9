// Package tseries is a deterministic simulator of the FPS T Series, the
// homogeneous vector supercomputer of Gustafson, Hawkinson and Scott
// (ICPP 1986): binary n-cube message passing between nodes that combine
// a transputer-style control processor, 1 MB of dual-ported memory, a
// pipelined 16 MFLOPS vector arithmetic unit, and four multiplexed
// serial links; eight nodes plus a system board and disk form a module,
// modules pair into cabinets, cabinets cable into cubes of up to
// dimension 14.
//
// This package is the public facade. Construct a System, write programs
// either as Go functions running as simulated processes or in the
// bundled Occam subset, and read results and timings off the simulated
// clock. The experiment harness (Experiments, RunExperiment) regenerates
// every quantitative claim and figure of the paper; `tsim -experiment`
// and `go test -bench .` drive it.
package tseries

import (
	"context"

	"tseries/internal/core"
	"tseries/internal/fault"
	"tseries/internal/machine"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// System is a complete, runnable T Series configuration.
type System = core.System

// Spec is a derived configuration table row.
type Spec = machine.Spec

// Result is one experiment's reproduction output.
type Result = core.Result

// Experiment regenerates one table or figure of the paper.
type Experiment = core.Experiment

// FaultPlan is a deterministic, seed-driven fault scenario: a link
// bit-error rate plus timed events (node crashes, link outages, DRAM
// bit flips, disk corruption).
type FaultPlan = fault.Plan

// FaultEvent is one timed fault in a plan.
type FaultEvent = fault.Event

// Supervisor is the recovery orchestrator: it checkpoints the machine
// and replays supervised workloads after unrecoverable faults.
type Supervisor = machine.Supervisor

// FaultCounters aggregates detected/corrected/uncorrected error,
// retransmit, detour, and rollback accounting.
type FaultCounters = stats.FaultCounters

// ParseFaultPlan parses the `tsim -faults` specification syntax, e.g.
// "seed=7,ber=1e-6,crash=2@12s,down=0.1@5s+2s".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// New builds a 2^dim-node machine with its hypercube network, modules,
// system ring and disks, one simulation shard per module. Simulable
// dimensions are 0..12 (up to the 12-cube's 4096 nodes); use SpecFor
// for larger configurations, whose properties derive from module
// homogeneity without instantiation. System.Go states the
// shard-ownership rule that programs on a multi-module system follow.
func New(dim int) (*System, error) { return core.NewSystem(dim) }

// SpecFor derives the specification of any configuration up to the
// 14-cube wiring maximum.
func SpecFor(dim int) (Spec, error) { return machine.SpecFor(dim) }

// WorkloadConfig carries every knob a workload can consume; see
// DefaultWorkloadConfig for the starting values. Its KernelShards field
// turns on the conservative parallel kernel: shard-native workloads
// execute their logical partition on up to that many host workers, with
// reports byte-identical to a serial run at every value.
type WorkloadConfig = workloads.Config

// ShardStats is one kernel shard's execution summary in a sharded
// KernelStats snapshot.
type ShardStats = sim.ShardStats

// WorkloadReport is the uniform outcome of one workload run.
type WorkloadReport = workloads.Report

// KernelStats is the simulation engine's self-measurement: events
// executed, processes spawned/finished, park/unpark counts, named
// counters, and per-resource utilization.
type KernelStats = sim.Stats

// SweepPoint is one cube dimension of a workload sweep.
type SweepPoint = core.SweepPoint

// Experiments lists the full reproduction suite (E1..E20 plus the
// ablations A1..A6) in paper order.
func Experiments() []Experiment { return core.All() }

// RunExperiment runs one experiment by ID ("E1".."E20", "A1".."A6").
// Canceling ctx aborts the experiment at its kernel's next event
// boundary and returns the context's error.
func RunExperiment(ctx context.Context, id string) (*Result, error) {
	e, err := core.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}

// RunSuite runs the given experiments across `workers` host goroutines
// (every experiment builds its own System, so runs are independent);
// results come back in suite order, byte-identical to a serial run.
func RunSuite(ctx context.Context, exps []Experiment, workers int) ([]*Result, error) {
	return core.RunSuite(ctx, exps, workers)
}

// Workloads lists the registered workload names.
func Workloads() []string { return workloads.Names() }

// DefaultWorkloadConfig returns the values the tsim command starts from.
func DefaultWorkloadConfig() WorkloadConfig { return workloads.DefaultConfig() }

// RunWorkload runs one registered workload under the given Config.
// Canceling ctx aborts the run at its kernel's next event boundary.
func RunWorkload(ctx context.Context, name string, cfg WorkloadConfig) (WorkloadReport, error) {
	r, err := workloads.Get(name)
	if err != nil {
		return WorkloadReport{}, err
	}
	cfg.Ctx = ctx
	return r.Run(cfg)
}

// RunSweep runs a workload at each cube dimension in dims across
// `workers` goroutines, in deterministic dims order.
func RunSweep(ctx context.Context, name string, base WorkloadConfig, dims []int, workers int) ([]SweepPoint, error) {
	return core.RunSweep(ctx, name, base, dims, workers)
}
