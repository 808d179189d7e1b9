package core

import (
	"context"

	"fmt"
	"math"

	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/module"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// E9ModuleAggregate measures one eight-node module: aggregate SAXPY
// throughput near the 128 MFLOPS peak, and the intramodule communication
// bandwidth ("over 12 MB/s") with all nodes driving their three
// intramodule cube links simultaneously.
func E9ModuleAggregate(ctx context.Context) (*Result, error) {
	r := newResult("E9", "Module aggregate performance")
	sax, err := workloads.DistributedSAXPY(ctx, 3, 200, 1)
	if err != nil {
		return nil, err
	}

	// Intramodule bandwidth: every node streams 32 KB to each of its
	// three in-module neighbors concurrently.
	m, err := machine.NewAuto(ctx, 3, workloads.KernelShardsFrom(ctx))
	if err != nil {
		return nil, err
	}
	const chunk = 32 * 1024
	sent := make([]int64, len(m.Nodes))
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(id)
		for d := 0; d < 3; d++ {
			dst := id ^ (1 << uint(d))
			dd := d
			m.GoNode(id, fmt.Sprintf("tx%d.%d", id, d), func(p *sim.Proc) {
				if err := e.Send(p, dst, 60+dd, make([]byte, chunk)); err != nil {
					panic(err)
				}
				sent[nodeID] += chunk
			})
		}
		for d := 0; d < 3; d++ {
			dd := d
			m.GoNode(id, fmt.Sprintf("rx%d.%d", id, d), func(p *sim.Proc) { e.Recv(p, 60+dd) })
		}
	}
	elapsed := sim.Duration(m.Run(0))
	var totalBytes int64
	for _, b := range sent {
		totalBytes += b
	}
	intra := stats.MBps(totalBytes, elapsed)

	t := stats.NewTable("Eight-node module",
		"quantity", "paper", "measured")
	t.Add("peak MFLOPS", 128, module.PeakMFLOPS)
	t.Add("sustained MFLOPS (SAXPY sweep)", "approaches 128", sax.MFLOPS())
	t.Add("user RAM (MB)", 8, module.UserRAMBytes>>20)
	t.Add("intramodule bandwidth (MB/s)", "over 12", intra)
	r.Table = t
	r.Metrics["sustained_mflops"] = sax.MFLOPS()
	r.Metrics["intramodule_MBps"] = intra
	return r, nil
}

// E10ConfigTable derives the §III configuration table purely from module
// properties — the homogeneity argument: "The specifications of any
// sized FPS T Series can be derived from the properties of the
// individual modules."
func E10ConfigTable(ctx context.Context) (*Result, error) {
	r := newResult("E10", "Configuration table")
	t := stats.NewTable("T Series configurations (derived from the 8-node module)",
		"cube", "nodes", "modules", "cabinets", "peak GFLOPS", "RAM", "disks", "free sublinks")
	for _, dim := range []int{3, 4, 6, 8, 10, 12, 14} {
		s, err := machine.SpecFor(dim)
		if err != nil {
			return nil, err
		}
		ram := fmt.Sprintf("%d MB", s.RAMBytes>>20)
		if s.RAMBytes >= 1<<30 {
			ram = fmt.Sprintf("%d GB", s.RAMBytes>>30)
		}
		t.Add(fmt.Sprintf("%d-cube", dim), s.Nodes, s.Modules, s.Cabinets,
			s.PeakGFLOPS(), ram, s.Disks, s.FreeSublinks)
	}
	r.Table = t
	s6, _ := machine.SpecFor(6)
	s12, _ := machine.SpecFor(12)
	s14, _ := machine.SpecFor(14)
	r.Metrics["gflops_64node"] = s6.PeakGFLOPS()
	r.Metrics["gflops_4096node"] = s12.PeakGFLOPS()
	r.Metrics["free_sublinks_14cube"] = float64(s14.FreeSublinks)
	r.note("paper checks: 64 nodes = 4 cabinets, 1 GFLOPS, 64 MB, 8 disks; 12-cube = 4096 nodes, 256 cabinets, >65 GFLOPS, 4 GB; 14-cube is the wiring maximum")
	return r, nil
}

// E11Checkpoint measures snapshot time at one and two modules (constant
// ≈15 s because every module uses its own thread and disk), verifies a
// crash-and-restore cycle, and shows ring backup to a neighbor module.
func E11Checkpoint(ctx context.Context) (*Result, error) {
	r := newResult("E11", "Checkpoint / restart")
	t := stats.NewTable("Snapshot time vs configuration",
		"configuration", "memory", "snapshot time (s)")
	var snapSecs []float64
	for _, dim := range []int{3, 4} {
		m, err := machine.NewAuto(ctx, dim, workloads.KernelShardsFrom(ctx))
		if err != nil {
			return nil, err
		}
		// Every module snapshots from time zero on its own shard; the
		// machine's snapshot time is the slowest module's. Timing the
		// modules themselves keeps the fan-out and join out of the
		// measurement.
		took := make([]sim.Duration, len(m.Modules))
		for i, mod := range m.Modules {
			i, mod := i, mod
			m.Group.Shard(i).Go(fmt.Sprintf("snap/mod%d", i), func(p *sim.Proc) {
				if _, err := mod.Snapshot(p); err != nil {
					panic(err)
				}
				took[i] = sim.Duration(p.Now())
			})
		}
		m.Run(0)
		var elapsed sim.Duration
		for _, d := range took {
			elapsed = max(elapsed, d)
		}
		snapSecs = append(snapSecs, elapsed.Seconds())
		t.Add(fmt.Sprintf("%d modules (%d nodes)", len(m.Modules), len(m.Nodes)),
			fmt.Sprintf("%d MB", len(m.Nodes)), elapsed.Seconds())
	}
	r.Table = t
	r.Metrics["snap_1mod_s"] = snapSecs[0]
	r.Metrics["snap_2mod_s"] = snapSecs[1]

	// Crash/recovery round trip.
	m, err := machine.NewAuto(ctx, 3, workloads.KernelShardsFrom(ctx))
	if err != nil {
		return nil, err
	}
	for i, nd := range m.Nodes {
		nd.Mem.PokeF64(0, fparith.FromInt64(int64(1000+i)))
	}
	recovered := true
	m.K.Go("cycle", func(p *sim.Proc) {
		snaps, err := m.SnapshotAll(p)
		if err != nil {
			panic(err)
		}
		for _, nd := range m.Nodes {
			nd.Mem.PokeF64(0, fparith.FromInt64(-1)) // the "crash"
		}
		if err := m.RestoreAll(p, snaps); err != nil {
			panic(err)
		}
	})
	m.Run(0)
	for i, nd := range m.Nodes {
		if nd.Mem.PeekF64(0) != fparith.FromInt64(int64(1000+i)) {
			recovered = false
		}
	}
	r.Metrics["restore_ok"] = boolMetric(recovered)
	r.note("snapshot time is set by the thread's final link carrying the module's 8 MB at ≈0.577 MB/s ≈ 14.5 s — 'about 15 seconds … regardless of configuration'")
	return r, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// A3SnapshotInterval sweeps the user-specified checkpoint interval: the
// overhead fraction is snapshot/interval and the expected recomputation
// after a failure is interval/2, crossing near the paper's "about 10
// minutes provides a good compromise".
func A3SnapshotInterval(ctx context.Context) (*Result, error) {
	r := newResult("A3", "Snapshot interval trade-off")
	const (
		snapshot = 14.6       // seconds, measured in E11
		mtbf     = 3.5 * 3600 // seconds; a mid-1980s multi-board MTBF assumption
	)
	t := stats.NewTable("Interval trade-off (15 s snapshots, 3.5 h MTBF)",
		"interval", "overhead s/hour", "expected rework s/hour", "total lost s/hour")
	best := ""
	bestCost := 1e18
	for _, mins := range []float64{1, 2, 5, 10, 20, 30, 60} {
		interval := mins * 60
		overhead := 3600 * snapshot / interval
		rework := (3600 / mtbf) * (interval / 2)
		cost := overhead + rework
		t.Add(fmt.Sprintf("%.0f min", mins), overhead, rework, cost)
		if cost < bestCost {
			bestCost = cost
			best = fmt.Sprintf("%.0f min", mins)
		}
	}
	r.Table = t
	r.note("optimum √(2·snapshot·MTBF) ≈ %.0f s; minimum of the sweep at %s — the paper's '~10 minutes provides a good compromise'", math.Sqrt(2*snapshot*mtbf), best)
	r.Metrics["best_interval_is_10min"] = boolMetric(best == "10 min")
	return r, nil
}

func init() {
	register("E9", "Module aggregate: 128 MFLOPS, >12 MB/s intramodule (§III)", E9ModuleAggregate)
	register("E10", "Configuration table: module → 14-cube (§III)", E10ConfigTable)
	register("E11", "Snapshot ≈15 s regardless of configuration (§III)", E11Checkpoint)
	register("A3", "Ablation: snapshot interval trade-off (~10 min compromise)", A3SnapshotInterval)
}
