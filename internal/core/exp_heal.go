package core

import (
	"context"

	"fmt"

	"tseries/internal/fault"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// E18SelfHealing exercises the self-healing layer end to end: the
// machine is NEVER told about the injected faults (every event is
// Silent), so discovery has to come from the ring heartbeat detector,
// repair from the spare-board remapper, and state from checkpoint
// rollback — after which the run must finish bit-identical to a
// fault-free golden twin of the same program. Four scenarios walk the
// recovery ladder: nothing to heal, a silent crash absorbed by a spare,
// the same crash with the spare pool empty (degraded in-place repair at
// the board-swap stall), and a wedged processor whose board keeps
// beating with frozen progress. A final seeded chaos pair checks the
// whole path replays deterministically.
func E18SelfHealing(ctx context.Context) (*Result, error) {
	r := newResult("E18", "Self-healing: heartbeat detection and spare remap")

	base := workloads.SoakParams{
		Dim: 3, Epochs: 2, PhasesPerEpoch: 2, RowsPerPhase: 2,
		Pad: 4 * sim.Second, Spares: 1,
	}
	// The crash/hang instant sits inside a Pad window so no peer trips
	// over the corpse first: the heartbeat silence must be the evidence.
	silentCrash := func(node int) *fault.Plan {
		return &fault.Plan{Seed: 1, Events: []fault.Event{
			{At: 18500 * sim.Millisecond, Kind: fault.Crash, Node: node, Silent: true},
		}}
	}

	t := stats.NewTable("self-healing scenarios (3-cube, 4 phases, silent faults)",
		"scenario", "images", "elapsed (s)", "detects", "detect (ms)", "remaps", "degraded", "rollbacks", "golden match")
	row := func(name string, res workloads.SoakResult) {
		t.Add(name, res.Images, res.Elapsed.Seconds(), res.DetectEvents,
			float64(res.DetectAvg)/float64(sim.Millisecond),
			res.Remaps, res.Degraded, res.Rollbacks, res.Fingerprint == res.Golden)
	}

	// Scenario 1: fault-free baseline — self-healing must stay silent.
	clean, err := workloads.Soak(ctx, base)
	if err != nil {
		return nil, err
	}
	row("fault-free", clean)
	if !clean.Correct || clean.Remaps != 0 || clean.DetectEvents != 0 {
		return nil, fmt.Errorf("E18: fault-free soak healed something: %+v", clean)
	}
	r.Metrics["baseline_elapsed_s"] = clean.Elapsed.Seconds()

	// Scenario 2: silent crash, spare available. Heartbeats condemn the
	// cut point, the image remaps onto the module's spare, rollback
	// replays, and the fingerprint must match the fault-free twin.
	p := base
	p.Plan = silentCrash(3)
	crash, err := workloads.Soak(ctx, p)
	if err != nil {
		return nil, err
	}
	row("crash, spare", crash)
	if !crash.Correct || crash.Remaps != 1 || crash.DetectEvents < 1 {
		return nil, fmt.Errorf("E18: silent crash not healed via spare: %+v", crash)
	}
	r.Metrics["crash_detect_ms"] = float64(crash.DetectAvg) / float64(sim.Millisecond)
	r.Metrics["crash_remaps"] = float64(crash.Remaps)
	r.Metrics["crash_golden_match"] = 1

	// Scenario 3: same crash with the spare pool empty — recovery
	// falls back to in-place repair, paying the board-swap stall.
	p = base
	p.Spares = 0
	p.Plan = silentCrash(2)
	degraded, err := workloads.Soak(ctx, p)
	if err != nil {
		return nil, err
	}
	row("crash, no spare", degraded)
	if !degraded.Correct || degraded.Degraded != 1 || degraded.Remaps != 0 {
		return nil, fmt.Errorf("E18: spare-exhausted crash not repaired in place: %+v", degraded)
	}
	r.Metrics["degraded_elapsed_s"] = degraded.Elapsed.Seconds()

	// Scenario 4: silent hang. The board keeps beating, so only frozen
	// progress past the hang timeout can convict it.
	p = base
	p.Epochs = 1
	p.Plan = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 18500 * sim.Millisecond, Kind: fault.Hang, Node: 3, Silent: true},
	}}
	hang, err := workloads.Soak(ctx, p)
	if err != nil {
		return nil, err
	}
	row("hang, spare", hang)
	if !hang.Correct || hang.Stats.Counters["heal.hang_count"] != 1 {
		return nil, fmt.Errorf("E18: silent hang not detected: %+v", hang)
	}
	r.Metrics["hang_count"] = float64(hang.Stats.Counters["heal.hang_count"])

	// Determinism: the same chaos recipe must heal to the identical
	// final state, detection latencies included.
	p = base
	p.Chaos = &fault.Chaos{Seed: 7, Dur: 60 * sim.Second, Crashes: 1, Hangs: 1}
	d1, err := workloads.Soak(ctx, p)
	if err != nil {
		return nil, err
	}
	d2, err := workloads.Soak(ctx, p)
	if err != nil {
		return nil, err
	}
	row("chaos seed=7", d1)
	if d1.Fingerprint == d2.Fingerprint && d1.Elapsed == d2.Elapsed && d1.DetectAvg == d2.DetectAvg {
		r.Metrics["determinism"] = 1
	} else {
		r.Metrics["determinism"] = 0
	}

	r.Table = t
	r.note("every fault above is Silent — the supervisor is never notified; detection is heartbeat/phi-accrual only (detect latency is confirm time from last beat)")
	r.note("the paper's spare-board story (§II) is qualitative; the reproduction's claim is that a silently killed board is discovered, replaced, and the workload finishes bit-identical to never having faulted")
	return r, nil
}

func init() {
	register("E18", "Self-healing: heartbeats, spare remap, chaos soak (§II-III)", E18SelfHealing)
}
