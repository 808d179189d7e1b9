package workloads

import (
	"context"

	"fmt"

	"tseries/internal/fault"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// Memory layout of the fault-tolerant SAXPY workload (rows of 128
// 64-bit elements):
//
//	row 0        X operand, element i holds the value i
//	row 298      word 0 is the phase progress counter (checkpointed!)
//	row 299      landing area for the neighbor's exchanged row
//	row 300      Y operand, all elements 3
//	row 301+ph   phase ph's result row, 2·i+3 after SAXPY with A=2
const (
	ftXRow       = 0
	ftCtrRow     = 298
	ftInRow      = 299
	ftYRow       = 300
	ftOutRowBase = 301

	// ftCtrWord is the counter's 32-bit word index (256 words per row).
	ftCtrWord = ftCtrRow * (memory.RowBytes / 4)
)

// RecoveryResult reports a supervised fault-tolerant run.
type RecoveryResult struct {
	Nodes   int
	Phases  int
	Elapsed sim.Duration
	// Correct is the bit-exactness verdict over every node's result
	// rows, exchanged rows, and progress counter.
	Correct bool
	// Rollbacks is how many times the supervisor rewound the machine.
	Rollbacks int64
	// Checkpoints is how many snapshots each module recorded (the
	// initial one plus periodic ones, including any taken on replay).
	Checkpoints int
	// Recovery is the halt-to-replay time of the last recovery.
	Recovery sim.Duration
	// Faults aggregates the whole machine's fault counters.
	Faults stats.FaultCounters
	// PayloadBytes is the useful (application-level) exchange traffic;
	// PayloadBytes/Elapsed is the run's goodput.
	PayloadBytes int64
	// Mem is the machine's host-footprint report: sparse node-memory
	// residency and the system disks' checkpoint dedup counters.
	Mem machine.MemStats
	// Stats carries the engine metrics at completion.
	Stats sim.Stats
}

func init() {
	RegisterFunc("recovery", []string{"dim", "phases", "rows", "pad", "ckpt", "faults"}, func(cfg Config) (Report, error) {
		rowsPerPhase := cfg.Rows/25 + 1
		res, err := FaultTolerantSAXPY(cfg.Context(), cfg.Dim, cfg.Phases, rowsPerPhase, cfg.Pad, cfg.Ckpt, cfg.Faults)
		if err != nil {
			return Report{}, err
		}
		flops := int64(cfg.Phases) * int64(rowsPerPhase) * int64(res.Nodes) * 2 * memory.F64PerRow
		rep := newReport("recovery", res.Nodes, res.Elapsed, flops, res.Stats)
		rep.Metrics["checkpoints"] = float64(res.Checkpoints)
		rep.Metrics["rollbacks"] = float64(res.Rollbacks)
		rep.Metrics["recovery_ms"] = float64(res.Recovery) / float64(sim.Millisecond)
		rep.Metrics["goodput_mbps"] = res.GoodputMBps()
		mem := res.Mem
		rep.Mem = &mem
		if !res.Correct {
			return rep, fmt.Errorf("workloads: recovery run finished with corrupted state")
		}
		rep.Summary = fmt.Sprintf("Recovery: %d phases on %d nodes: %v simulated, %d checkpoints, %d rollbacks, %.2f MB/s goodput",
			res.Phases, res.Nodes, res.Elapsed, res.Checkpoints, res.Rollbacks, res.GoodputMBps())
		return rep, nil
	})
}

// GoodputMBps is useful payload delivered per simulated second.
func (r RecoveryResult) GoodputMBps() float64 {
	return stats.MBps(r.PayloadBytes, r.Elapsed)
}

// FaultTolerantSAXPY runs a phased, supervised SAXPY sweep on a
// dim-cube under an optional fault plan. Each phase does synthetic
// compute (phasePad of wait plus rowsPerPhase vector forms), exchanges
// a result row with the phase's dimension neighbor, advances a
// progress counter held in checkpointed node memory, and barriers;
// node 0 then checkpoints when ckptInterval has elapsed. Because the
// counter lives in the snapshot, a rollback replays only the phases
// after the last checkpoint. The run is declared Correct only if every
// result row, every exchanged row, and every counter is bit-exact —
// under injected bit errors, outages, and crashes.
func FaultTolerantSAXPY(ctx context.Context, dim, phases, rowsPerPhase int, phasePad, ckptInterval sim.Duration, plan *fault.Plan) (RecoveryResult, error) {
	if phases < 1 || ftOutRowBase+phases > memory.NumRows {
		return RecoveryResult{}, fmt.Errorf("workloads: phase count %d out of range", phases)
	}
	m, err := machine.NewAuto(ctx, dim, KernelShardsFrom(ctx))
	if err != nil {
		return RecoveryResult{}, err
	}
	sv := machine.NewSupervisor(m)
	m.ArmFaults(plan, sv)
	for _, nd := range m.Nodes {
		for i := 0; i < memory.F64PerRow; i++ {
			nd.Mem.PokeF64(i, fparith.FromInt64(int64(i)))
			nd.Mem.PokeF64(ftYRow*memory.F64PerRow+i, fparith.FromInt64(3))
		}
		nd.Mem.PokeWord(ftCtrWord, 0)
	}

	var runErr error
	m.K.Go("ftsaxpy/supervise", func(p *sim.Proc) {
		runErr = sv.Run(p, func(bp *sim.Proc, id int) error {
			return ftBody(bp, m, sv, id, dim, phases, rowsPerPhase, phasePad, ckptInterval)
		})
	})
	end := m.Run(0)
	if err := m.Err(); err != nil {
		return RecoveryResult{}, err // canceled: results are partial
	}
	if runErr != nil {
		return RecoveryResult{}, runErr
	}

	res := RecoveryResult{
		Nodes:       len(m.Nodes),
		Phases:      phases,
		Elapsed:     sim.Duration(end),
		Correct:     true,
		Rollbacks:   sv.Rollbacks,
		Checkpoints: m.Modules[0].SnapshotsTaken,
		Recovery:    sv.LastRecovery,
		Faults:      m.FaultReport(plan, sv),
		Mem:         m.MemStats(),
		Stats:       m.SimStats(),
	}
	if dim > 0 {
		res.PayloadBytes = int64(phases) * int64(len(m.Nodes)) * int64(memory.RowBytes)
	}
	// Bit-exact verification against the host-arithmetic reference.
	for _, nd := range m.Nodes {
		if nd.Mem.PeekWord(ftCtrWord) != uint32(phases) {
			res.Correct = false
		}
		for i := 0; i < memory.F64PerRow; i++ {
			want := fparith.FromInt64(int64(2*i + 3))
			for ph := 0; ph < phases; ph++ {
				if nd.Mem.PeekF64((ftOutRowBase+ph)*memory.F64PerRow+i) != want {
					res.Correct = false
				}
			}
			if dim > 0 && nd.Mem.PeekF64(ftInRow*memory.F64PerRow+i) != want {
				res.Correct = false
			}
		}
	}
	return res, nil
}

// ftBody is the per-node program. It is restart-safe: the first thing
// it does is read its progress counter (through the timed, parity-
// checked word port) and resume from the phase after it.
func ftBody(bp *sim.Proc, m *machine.Machine, sv *machine.Supervisor, id, dim, phases, rowsPerPhase int, phasePad, ckptInterval sim.Duration) error {
	nd := m.Nodes[id]
	ep := m.Endpoint(id)
	ctr, err := nd.Mem.ReadWord(bp, ftCtrWord)
	if err != nil {
		return err
	}
	for ph := int(ctr); ph < phases; ph++ {
		if phasePad > 0 {
			bp.Wait(phasePad)
		}
		for r := 0; r < rowsPerPhase; r++ {
			if _, err := nd.RunForm(bp, fpu.Op{
				Form: fpu.SAXPY, Prec: fpu.P64,
				X: ftXRow, Y: ftYRow, Z: ftOutRowBase + ph,
				A: fparith.FromFloat64(2),
			}); err != nil {
				return err
			}
		}
		if dim > 0 {
			peer := id ^ (1 << uint(ph%dim))
			out := make([]fparith.F64, memory.F64PerRow)
			for i := range out {
				out[i] = nd.Mem.PeekF64((ftOutRowBase+ph)*memory.F64PerRow + i)
			}
			tag := 4000 + ph%8
			if err := ep.SendF64(bp, peer, tag, out); err != nil {
				return err
			}
			src, theirs := ep.RecvF64(bp, tag)
			if src != peer {
				return fmt.Errorf("workloads: node %d phase %d: exchange from %d, want %d", id, ph, src, peer)
			}
			if len(theirs) != memory.F64PerRow {
				return fmt.Errorf("workloads: node %d phase %d: short exchange (%d elements)", id, ph, len(theirs))
			}
			for i, v := range theirs {
				nd.Mem.PokeF64(ftInRow*memory.F64PerRow+i, v)
			}
		}
		nd.Mem.WriteWord(bp, ftCtrWord, uint32(ph+1))
		// Barrier so the checkpoint below captures a machine in which
		// every node has completed phase ph; tags are spaced 64 apart
		// because a crash-degraded barrier widens its tag namespace.
		if err := ep.Barrier(bp, 1000+(ph%8)*64); err != nil {
			return err
		}
		if id == 0 {
			if err := sv.MaybeCheckpoint(bp, ckptInterval); err != nil {
				return err
			}
		}
		// Hold everyone until the checkpoint (if any) is on disk.
		if err := ep.Barrier(bp, 1000+(ph%8)*64+32); err != nil {
			return err
		}
	}
	return nil
}
