package module

import (
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// recoveryRows are the rows each node of the recovery workload
// (workloads/recovery.go) has written by the end of an 8-phase run: the
// X operand in row 0, the progress counter, exchange landing area and Y
// operand in rows 298–300, and one result row per phase from row 301.
var recoveryRows = []int{0, 298, 299, 300, 301, 302, 303, 304, 305, 306, 307, 308}

// benchModule builds a full module whose nodes hold the recovery
// workload's rows, the same content on every node.
func benchModule(b *testing.B) (*sim.Kernel, *Module) {
	k, m := buildModule(b, NodesPerModule)
	for _, nd := range m.Nodes {
		for _, row := range recoveryRows {
			for e := 0; e < memory.F64PerRow; e++ {
				nd.Mem.PokeF64(row*memory.F64PerRow+e, fparith.FromInt64(int64(2*e+row)))
			}
		}
	}
	return k, m
}

// BenchmarkSnapshot times one snapshot of the module onto its disk.
func BenchmarkSnapshot(b *testing.B) {
	k, m := benchModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("snap", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Snapshot(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Run(0)
}

// BenchmarkRestore times one restore of the module from a snapshot.
func BenchmarkRestore(b *testing.B) {
	k, m := benchModule(b)
	var snap *Snapshot
	k.Go("snap", func(p *sim.Proc) {
		var err error
		if snap, err = m.Snapshot(p); err != nil {
			b.Error(err)
		}
	})
	k.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("restore", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := m.Restore(p, snap); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Run(0)
}
