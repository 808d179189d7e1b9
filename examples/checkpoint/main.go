// Checkpoint: the system disk's primary function — memory snapshots for
// error recovery. A two-module machine runs an iterative computation
// with periodic snapshots; a DRAM fault (parity error) strikes mid-run;
// the machine restores the last checkpoint, backs the snapshot up over
// the system ring, and finishes with the correct answer.
package main

import (
	"fmt"
	"log"

	"tseries"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/sim"
)

func main() {
	sys, err := tseries.New(4) // 16 nodes, 2 modules, system ring
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %d nodes, %d modules with disks on a system ring\n\n",
		sys.Nodes(), len(sys.Modules()))

	// The "computation": every node repeatedly doubles a row vector. A
	// process that touches a node runs on that node's shard, so each
	// step is one process per node; the host drives the run in phases,
	// one sys.Run per phase.
	for id := 0; id < sys.Nodes(); id++ {
		mem := sys.Node(id).Mem
		for i := 0; i < memory.F64PerRow; i++ {
			mem.PokeF64(300*memory.F64PerRow+i, fparith.FromFloat64(1))
		}
	}
	steps := func(n int) sim.Time {
		for id := 0; id < sys.Nodes(); id++ {
			nd := sys.Node(id)
			sys.GoNode(id, fmt.Sprintf("step/n%d", id), func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if _, err := nd.RunForm(p, fpu.Op{
						Form: fpu.VSMul, Prec: fpu.P64,
						A: fparith.FromFloat64(2), X: 300, Z: 300,
					}); err != nil {
						log.Fatal(err)
					}
				}
			})
		}
		return sys.Run(0)
	}
	// onShard0 runs fn as one process on module 0's shard, from where
	// machine-wide checkpoint and restore fan out to every module.
	onShard0 := func(name string, fn func(p *sim.Proc)) sim.Time {
		sys.Go(name, fn)
		return sys.Run(0)
	}
	check := func(want float64) bool {
		for id := 0; id < sys.Nodes(); id++ {
			if sys.Node(id).Mem.PeekF64(300*memory.F64PerRow).Float64() != want {
				return false
			}
		}
		return true
	}

	// Three steps of work, then a checkpoint.
	fmt.Printf("t=%-12v checkpoint after 3 steps (value 8)\n", steps(3))
	var snaps []*module.Snapshot
	t := onShard0("checkpoint", func(p *sim.Proc) {
		var err error
		if snaps, err = sys.Checkpoint(p); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("t=%-12v snapshot complete (≈15 s: 8 MB/module over the system thread)\n", t)

	// Two more steps… then a memory fault, caught by node 5's own read.
	steps(2)
	sys.Node(5).Mem.FlipBit(300*memory.RowBytes+4, 1)
	sys.GoNode(5, "fault", func(p *sim.Proc) {
		if _, err := sys.Node(5).Mem.ReadWord(p, 300*memory.RowBytes/4+1); err != nil {
			fmt.Printf("t=%-12v FAULT detected on node 5: %v\n", p.Now(), err)
		}
	})
	sys.Run(0)

	// Recovery: restore the checkpoint and redo the lost steps.
	t = onShard0("restore", func(p *sim.Proc) {
		if err := sys.Restore(p, snaps); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("t=%-12v restored checkpoint (all 16 nodes back at value 8)\n", t)
	if !check(8) {
		log.Fatal("restore did not recover the checkpointed state")
	}
	fmt.Printf("t=%-12v recomputed to value 32\n", steps(2))

	// Back the snapshot up to the ring neighbor's disk.
	onShard0("backup", func(p *sim.Proc) {
		if err := sys.Modules()[0].BackupLastSnapshot(p); err != nil {
			log.Fatal(err)
		}
		p.Wait(sim.Second)
	})

	if !check(32) {
		log.Fatal("final state wrong")
	}
	if !sys.Modules()[1].HasBackupOf(0, snaps[0].ID, 8) {
		log.Fatal("ring backup missing")
	}
	fmt.Println("\nfinal value 32 on every node; module 0's snapshot backed up on module 1's disk: ok")
}
