package frontend

import (
	"context"
	"encoding/binary"
	"testing"

	"tseries/internal/cp"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

func TestBootSPMDProgram(t *testing.T) {
	// Boot a 16-node machine (two modules) with one SPMD program: each
	// node computes id*id + nodes and stores it at a result word; the
	// front end collects and checks all 16 results.
	m, err := machine.NewAuto(context.Background(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fe := New(m)

	const resultWord = 0x7F10
	// ldnl takes the byte address in Areg: NodeIDWord*4 = 0x1FC00.
	prog, err := cp.Assemble(`
		ldc 0x1FC00  ; byte address of NodeIDWord (0x7F00*4)
		ldnl 0       ; my id
		stl 0
		ldc 0x1FC04
		ldnl 0       ; node count
		stl 1
		ldl 0
		ldl 0
		mul          ; id*id
		ldl 1
		add          ; + nodes
		ldc 0x1FC40  ; byte address of resultWord (0x7F10*4)
		stnl 0
		stopp
	`)
	if err != nil {
		t.Fatal(err)
	}

	var results [][]byte
	m.K.Go("frontend", func(p *sim.Proc) {
		if err := fe.LoadAll(p, prog); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		fe.RunAll(p)
		var err error
		results, err = fe.Collect(p, resultWord*4, 4)
		if err != nil {
			t.Errorf("collect: %v", err)
		}
	})
	m.Run(0)
	if len(results) != 16 {
		t.Fatalf("collected %d results", len(results))
	}
	for id, raw := range results {
		got := int32(binary.LittleEndian.Uint32(raw))
		want := int32(id*id + 16)
		if got != want {
			t.Fatalf("node %d result = %d, want %d", id, got, want)
		}
	}
}

func TestBootTiming(t *testing.T) {
	// Loading a program onto all nodes goes module-parallel: a 2-module
	// load is no slower than a 1-module load (same bytes per thread).
	load := func(dim int) sim.Duration {
		m, err := machine.NewAuto(context.Background(), dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		fe := New(m)
		code := make([]byte, 4096)
		var elapsed sim.Duration
		m.K.Go("fe", func(p *sim.Proc) {
			start := p.Now()
			if err := fe.LoadAll(p, code); err != nil {
				t.Errorf("load: %v", err)
			}
			elapsed = p.Now().Sub(start)
		})
		m.Run(0)
		return elapsed
	}
	one := load(3)
	two := load(4)
	if two > one+one/20 {
		t.Fatalf("2-module load %v much slower than 1-module %v", two, one)
	}
}
