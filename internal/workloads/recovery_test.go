package workloads

import (
	"context"

	"testing"

	"tseries/internal/fault"
	"tseries/internal/sim"
)

func TestFaultTolerantSAXPYCleanRun(t *testing.T) {
	res, err := FaultTolerantSAXPY(context.Background(), 2, 4, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("clean run is not bit-correct")
	}
	if res.Rollbacks != 0 {
		t.Fatalf("clean run rolled back %d times", res.Rollbacks)
	}
	if res.Faults.Retransmits != 0 || res.Faults.FramesCorrupted != 0 {
		t.Fatalf("clean run shows fault activity: %+v", res.Faults)
	}
}

func TestFaultTolerantSAXPYUnderBitErrors(t *testing.T) {
	plan := &fault.Plan{Seed: 7, BER: 1e-6}
	res, err := FaultTolerantSAXPY(context.Background(), 2, 4, 2, 0, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("run under BER 1e-6 is not bit-correct")
	}
	if res.Faults.FramesCorrupted == 0 {
		t.Fatal("plan injected no corruption; BER too low for the traffic volume?")
	}
	if res.Faults.Detected == 0 || res.Faults.Retransmits == 0 {
		t.Fatalf("corruption was injected but not detected/retransmitted: %+v", res.Faults)
	}
}

func TestFaultTolerantSAXPYDeterminism(t *testing.T) {
	run := func() RecoveryResult {
		res, err := FaultTolerantSAXPY(context.Background(), 2, 3, 2, 0, 0, &fault.Plan{Seed: 42, BER: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed {
		t.Fatalf("identical seeds diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Faults != b.Faults {
		t.Fatalf("identical seeds produced different counters:\n%+v\n%+v", a.Faults, b.Faults)
	}
}

func TestFaultTolerantSAXPYCrashRollback(t *testing.T) {
	// Crash node 2 mid-run. Phases are padded so the crash lands after
	// the initial checkpoint (~7 s of snapshot streaming) but before
	// the run completes; the supervisor must roll back and replay to a
	// bit-correct finish.
	plan := &fault.Plan{Seed: 3, Events: []fault.Event{
		{At: 12 * sim.Second, Kind: fault.Crash, Node: 2},
	}}
	res, err := FaultTolerantSAXPY(context.Background(), 2, 5, 1, 2*sim.Second, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("crash-recovery run is not bit-correct")
	}
	if res.Rollbacks == 0 {
		t.Fatal("crash did not trigger a rollback")
	}
	if res.Faults.Crashes != 1 {
		t.Fatalf("crash count = %d, want 1", res.Faults.Crashes)
	}
	if res.Recovery <= 0 {
		t.Fatal("recovery time not recorded")
	}
}

func TestFaultTolerantSAXPYCrashDuringBootCheckpoint(t *testing.T) {
	// Crash node 5 (declared) at 5 s, while chunks from upstream slots
	// still have to cross it in the ~15 s boot snapshot: the stall
	// watchdog tears the checkpoint before any snapshot reaches the
	// disk. The supervisor must repair node 5 in place, retake the boot
	// checkpoint and finish bit-correct with nothing to roll back.
	plan := &fault.Plan{Events: []fault.Event{
		{At: 5 * sim.Second, Kind: fault.Crash, Node: 5},
	}}
	res, err := FaultTolerantSAXPY(context.Background(), 3, 4, 5, 2*sim.Second, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("boot-crash run is not bit-correct")
	}
	if res.Rollbacks != 0 || res.Checkpoints != 1 || res.Faults.Crashes != 1 {
		t.Fatalf("rollbacks %d, checkpoints %d, crashes %d; want 0, 1, 1",
			res.Rollbacks, res.Checkpoints, res.Faults.Crashes)
	}
}

func TestFaultTolerantSAXPYLinkOutage(t *testing.T) {
	// Sever node 0's dimension-0 link for a while: the routers detour
	// its traffic over the other dimension and the run completes
	// bit-correct without any rollback.
	plan := &fault.Plan{Seed: 9, Events: []fault.Event{
		{At: 5 * sim.Second, Kind: fault.LinkDown, Node: 0, Dim: 0},
		{At: 40 * sim.Second, Kind: fault.LinkUp, Node: 0, Dim: 0},
	}}
	res, err := FaultTolerantSAXPY(context.Background(), 2, 6, 1, 2*sim.Second, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("outage run is not bit-correct")
	}
	if res.Faults.Detours == 0 {
		t.Fatal("outage produced no routing detours")
	}
	if res.Rollbacks != 0 {
		t.Fatalf("outage should not roll back, got %d rollbacks", res.Rollbacks)
	}
}
