// Boot: the front-end view of the machine. A host computer loads one
// SPMD assembly program into all sixteen nodes of a two-module machine
// through the system boards, starts every control processor, waits, and
// collects the per-node results — management traffic riding the same
// 0.577 MB/s links as everything else. Each module's share of the work
// runs on that module's own shard of the simulation.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"

	"tseries/internal/cp"
	"tseries/internal/frontend"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

func main() {
	m, err := machine.NewAuto(context.Background(), 4, 1) // 16 nodes, 2 modules
	if err != nil {
		log.Fatal(err)
	}
	fe := frontend.New(m)

	// The SPMD program: read my node id and the node count from the
	// boot words, compute 1000*id + count, store at the result word.
	const resultWord = 0x7F10
	prog, err := cp.Assemble(`
		ldc 0x1FC00   ; NodeIDWord*4
		ldnl 0
		ldc 1000
		mul
		stl 0
		ldc 0x1FC04   ; NodesWord*4
		ldnl 0
		ldl 0
		add
		ldc 0x1FC40   ; resultWord*4
		stnl 0
		stopp
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d bytes of control-processor code\n", len(prog))

	m.K.Go("frontend", func(p *sim.Proc) {
		t0 := p.Now()
		if err := fe.LoadAll(p, prog); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-10v loaded onto 16 nodes (2 modules in parallel over their threads)\n", p.Now().Sub(t0))

		fe.RunAll(p)
		fmt.Printf("t=%-10v all control processors halted\n", p.Now().Sub(t0))

		results, err := fe.Collect(p, resultWord*4, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-10v results collected:\n  ", p.Now().Sub(t0))
		for id, raw := range results {
			v := int32(binary.LittleEndian.Uint32(raw))
			if v != int32(1000*id+16) {
				log.Fatalf("node %d computed %d", id, v)
			}
			fmt.Printf("%d ", v)
		}
		fmt.Println("\nok")
	})
	m.Run(0)
}
