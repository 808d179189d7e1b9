package main

// The catalogue is what the benchmark runs and reports: BENCHMARK.json
// at the repository root lists exactly these workloads and metrics,
// and TestCatalogMatchesBenchmarkJSON keeps the two in step.

// workloadDef names one workload and why the benchmark runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"ckpt-recovery", "dim-5 fault-injected recovery run: checkpoint path (module thread, link frame staging, disk dedup) carries the work"},
	{"lattice-12cube", "the paper's 4096-node 12-cube lattice: sharded-kernel windows, dispatch, comm and machine build carry the work"},
	{"fpu-matmul", "single-module matmul: FPU forms and soft-float arithmetic carry the work; bypasses shards, checkpoints and links"},
	{"tsimd-durable", "in-process tsimd with a data dir, 2 closed-loop clients alternating cache misses (journal, run, store) and hits"},
	{"tsimd-hit", "the same tsimd, 2 closed-loop clients resubmitting completed specs: the cached read path alone, timed in batches"},
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) higherIsBetter() bool { return m.Better == "higher" }

// endToEnd metrics are reported by every workload from untraced
// samples. "op" is the workload's operation: one Runner.Run for the sim
// workloads, one cache-miss job for tsimd-durable, one cache hit for
// tsimd-hit. Bound is the share of the base median a metric may worsen
// by: 0.10 where ten runs repeat within it (max_rss_mb), 0.20 for the
// host timings, whose ten-run spreads on a shared host reached 0.185
// even with the host probe (README.md, "Bounds"). setup_s carries the
// largest bound: its spread is not held to its bound, so that work
// moved into set-up still shows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"max_rss_mb", "MB", "lower", 0.10},
}

// cpuLayers are the buckets a traced CPU profile is folded into: the
// repository's internal packages, then stacks with no such frame.
var cpuLayers = []string{
	"sim", "link", "memory", "fpu", "fparith", "module", "node", "comm", "machine",
	"workloads", "serve", "durable", "fault", "http", "gc", "runtime", "harness", "other",
}

// perLayer metrics are reported by every workload in the traced pass; a
// metric a workload has no such layer for reads 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range cpuLayers {
		ms = append(ms, metricDef{l + ".cpu_pct", "%", "lower", 0})
	}
	return append(ms, []metricDef{
		{"sim.events", "count", "lower", 0},
		{"sim.parks", "count", "lower", 0},
		{"sim.unparks", "count", "lower", 0},
		{"sim.procs_spawned", "count", "lower", 0},
		{"sim.max_queue", "count", "lower", 0},
		{"sim.windows", "count", "lower", 0},
		{"sim.cross_shard", "count", "lower", 0},
		{"sim.barrier_stall_ms", "sim_ms", "lower", 0},
		{"sim.elapsed_s", "sim_s", "lower", 0},
		{"sim.ns_per_event", "ns", "lower", 0},
		{"link.mb", "MB", "lower", 0},
		{"module.checkpoints", "count", "lower", 0},
		{"module.thread_drops", "count", "lower", 0},
		{"module.disk_rows_copied", "count", "lower", 0},
		{"module.disk_rows_shared", "count", "higher", 0},
		{"module.disk_rows_zero", "count", "higher", 0},
		{"module.disk_logical_mb", "MB", "lower", 0},
		{"module.disk_resident_mb", "MB", "lower", 0},
		{"module.disk_dedup_ratio", "ratio", "higher", 0},
		{"machine.rollbacks", "count", "lower", 0},
		{"machine.recovery_ms", "sim_ms", "lower", 0},
		{"machine.nodes", "count", "higher", 0},
		{"memory.rows_materialized", "count", "lower", 0},
		{"memory.cow_copies", "count", "lower", 0},
		{"memory.resident_mb", "MB", "lower", 0},
		{"fpu.flops", "count", "higher", 0},
		{"fpu.sim_mflops", "MFLOP/s", "higher", 0},
		{"fpu.host_ns_per_flop", "ns", "lower", 0},
		{"gc.cycles_per_op", "count", "lower", 0},
		{"gc.pause_ms_per_op", "ms", "lower", 0},
		{"heap.alloc_mb_per_op", "MB", "lower", 0},
		{"heap.objects_per_op", "count", "lower", 0},
		{"runtime.goroutines_peak", "count", "lower", 0},
		{"runtime.goroutines_leaked_per_op", "count", "lower", 0},
		{"serve.submit_pct", "%", "lower", 0},
		{"serve.queue_wait_pct", "%", "lower", 0},
		{"serve.run_pct", "%", "lower", 0},
		{"serve.result_pct", "%", "lower", 0},
		{"serve.hit_cost_pct", "%", "lower", 0},
		{"serve.poll_per_job", "count", "lower", 0},
		{"serve.cache_hit_ratio", "ratio", "higher", 0},
		{"serve.deduped", "count", "lower", 0},
		{"serve.rejected", "count", "lower", 0},
		{"durable.appends_per_job", "count", "lower", 0},
		{"durable.puts_per_job", "count", "lower", 0},
		{"durable.journal_mb", "MB", "lower", 0},
		{"durable.fsync_p50_us", "us", "lower", 0},
		{"durable.store_put_p50_us", "us", "lower", 0},
		{"harness.trace_overhead", "ratio", "lower", 0},
		{"harness.op_tail_ms", "ms", "lower", 0},
		{"harness.op_tail_q", "quantile", "higher", 0},
		{"harness.op_samples", "count", "higher", 0},
		{"harness.host_factor", "ratio", "higher", 0},
		{"harness.op_raw_ms", "ms", "lower", 0},
	}...)
}()

// lookupMetric finds a metric definition by name in either list.
func lookupMetric(name string) (metricDef, bool) {
	for _, ms := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
