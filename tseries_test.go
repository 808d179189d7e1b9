package tseries

import (
	"context"

	"testing"

	"tseries/internal/comm"
	"tseries/internal/fparith"
	"tseries/internal/sim"
	"tseries/internal/workloads"
)

func TestPublicFacade(t *testing.T) {
	s, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 4 {
		t.Fatalf("nodes = %d", s.Nodes())
	}
	sum := make([]float64, 4)
	s.SPMD(func(p *sim.Proc, e *comm.Endpoint) {
		out, err := e.AllReduceF64(p, 7, comm.AddF64, []fparith.F64{fparith.FromInt64(2)})
		if err != nil {
			t.Errorf("allreduce: %v", err)
			return
		}
		sum[e.ID()] = out[0].Float64()
	})
	for _, v := range sum {
		if v != 8 {
			t.Fatalf("sum = %v", sum)
		}
	}
}

func TestSpecForPublic(t *testing.T) {
	s, err := SpecFor(12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 4096 {
		t.Fatalf("12-cube nodes = %d", s.Nodes)
	}
	if _, err := SpecFor(20); err == nil {
		t.Fatal("20-cube accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "A1", "A2", "A3", "A4", "A5", "A6"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from the registry", want)
		}
	}
	if _, err := RunExperiment(context.Background(), "E0"); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

func TestQuickstartExperiment(t *testing.T) {
	r, err := RunExperiment(context.Background(), "E3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Table == nil {
		t.Fatal("no table")
	}
}

func TestFaultPlanSAXPYSmoke(t *testing.T) {
	// A small distributed SAXPY under a nonzero bit-error rate must
	// finish bit-correct: the link layer detects every injected error by
	// checksum and corrects it by retransmission.
	plan, err := ParseFaultPlan("seed=11,ber=1e-6")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 11 || plan.BER != 1e-6 {
		t.Fatalf("plan parsed wrong: %+v", plan)
	}
	res, err := workloads.FaultTolerantSAXPY(context.Background(), 2, 3, 2, 0, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("SAXPY under BER 1e-6 not bit-correct")
	}
	if plan.FramesCorrupted == 0 {
		t.Fatal("plan injected nothing — the smoke test is vacuous")
	}
	if res.Faults.Detected != res.Faults.FramesCorrupted || res.Faults.Undetected != 0 {
		t.Fatalf("error accounting: %+v", res.Faults)
	}
	if res.Faults.Retransmits < res.Faults.Detected {
		t.Fatalf("detected %d but retransmitted only %d", res.Faults.Detected, res.Faults.Retransmits)
	}
	if res.Rollbacks != 0 {
		t.Fatal("bit errors alone forced a rollback")
	}
}

// TestParallelKernelFacade drives the conservative parallel kernel
// through the public surface: a System has one shard per module, and
// RunWorkload reports are byte-equal at every KernelShards value.
func TestParallelKernelFacade(t *testing.T) {
	sys, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.M.Group.Shards(); got != 8 {
		t.Fatalf("a 6-cube has 8 modules but %d shards", got)
	}

	cfg := DefaultWorkloadConfig()
	cfg.Dim, cfg.Rows, cfg.Iters = 3, 25, 2
	serial, err := RunWorkload(context.Background(), "pring", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Kernel.Windows == 0 || len(serial.Kernel.Shards) != 8 {
		t.Fatalf("pring should report sharded kernel stats: %+v", serial.Kernel)
	}
	cfg.KernelShards = 4
	sharded, err := RunWorkload(context.Background(), "pring", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != sharded.String() || serial.Kernel.String() != sharded.Kernel.String() {
		t.Fatalf("KernelShards changed the report:\nserial:  %s\nsharded: %s", serial, sharded)
	}
}
