package workloads

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tseries/internal/fault"
	"tseries/internal/sim"
)

// reportBytes runs a workload and returns its report as JSON — the
// byte-identity currency of the shard-invariance contract.
func reportBytes(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	r, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("%s (shards=%d, seed=%d): %v", name, cfg.KernelShards, cfg.Seed, err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWorkloadsShardInvariant is the randomized property test of the
// parallel-kernel contract: every registered workload, at random seeds,
// must produce a byte-identical report at shard counts {1, 2, 3,
// NumCPU}. The partition is fixed by the workload's geometry, never by
// the knob: pring shards per station, the machine workloads shard one
// logical shard per module (one shard at single-module dimensions like
// this config's), and KernelShards picks only how many host workers
// execute the fixed shard set.
func TestWorkloadsShardInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	counts := []int{1, 2, 3, runtime.NumCPU()}
	for _, r := range Runners() {
		name := r.Name()
		for trial := 0; trial < 2; trial++ {
			cfg := smallConfig()
			cfg.Seed = rng.Int63n(1 << 20)
			serial := cfg
			serial.KernelShards = 1
			want := reportBytes(t, name, serial)
			for _, shards := range counts[1:] {
				got := cfg
				got.KernelShards = shards
				if raw := reportBytes(t, name, got); string(raw) != string(want) {
					t.Errorf("%s seed=%d: report at shards=%d differs from serial\n  serial: %s\n  shards: %s",
						name, cfg.Seed, shards, want, raw)
				}
			}
		}
	}
}

// TestRecoveryFaultShardInvariant pins the E17 path: a recovery run
// with an active fault plan (bit errors forcing rollbacks) must be
// byte-identical under the parallel kernel setting.
func TestRecoveryFaultShardInvariant(t *testing.T) {
	// A fault.Plan carries live RNG state, so each run gets a fresh one.
	mkCfg := func(shards int) Config {
		return Config{Dim: 2, Rows: 50, Phases: 3, Seed: 1,
			Pad: 50 * sim.Millisecond, Ckpt: 0,
			Faults:       &fault.Plan{Seed: 7, BER: 1e-6},
			KernelShards: shards}
	}
	want := reportBytes(t, "recovery", mkCfg(1))
	for _, shards := range []int{2, 4} {
		if got := reportBytes(t, "recovery", mkCfg(shards)); string(got) != string(want) {
			t.Errorf("recovery with faults at shards=%d differs from serial\n  serial: %s\n  shards: %s", shards, want, got)
		}
	}
}

// TestSoakChaosShardInvariant pins the E18 path: the chaos soak — whose
// correctness gate is already a twin-fingerprint comparison against a
// fault-free golden run — must hold that gate and stay byte-identical
// under the parallel kernel setting.
func TestSoakChaosShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("soak twin run is slow")
	}
	// A fresh chaos recipe per run: the recipe is expanded with live RNG
	// state when the machine is built.
	mkCfg := func(shards int) Config {
		return Config{Dim: 3, Reps: 2, Phases: 2, Rows: 30, Seed: 1,
			Pad:          4 * sim.Second,
			Chaos:        &fault.Chaos{Seed: 7, Dur: 60 * sim.Second, Crashes: 1, Hangs: 1},
			KernelShards: shards}
	}
	want := reportBytes(t, "soak", mkCfg(1))
	if got := reportBytes(t, "soak", mkCfg(4)); string(got) != string(want) {
		t.Errorf("chaos soak at shards=4 differs from serial\n  serial: %s\n  shards: %s", want, got)
	}
}

// TestMachineRecoveryShardInvariantDim4 pins the partitioned-machine
// E17 path: a dim-4 (two-module, genuinely sharded) recovery run with
// wire corruption AND a mid-run crash — boot checkpoint, periodic
// checkpoints, a full rollback-and-replay — must produce a
// byte-identical report at every worker count.
func TestMachineRecoveryShardInvariantDim4(t *testing.T) {
	mkCfg := func(shards int) Config {
		return Config{Dim: 4, Rows: 30, Phases: 6, Seed: 1,
			Pad: 2 * sim.Second, Ckpt: 4 * sim.Second,
			Faults: &fault.Plan{Seed: 7, BER: 1e-9, Events: []fault.Event{
				{At: 12 * sim.Second, Kind: fault.Crash, Node: 5},
			}},
			KernelShards: shards}
	}
	want := reportBytes(t, "recovery", mkCfg(1))
	for _, shards := range []int{2, 4} {
		if got := reportBytes(t, "recovery", mkCfg(shards)); string(got) != string(want) {
			t.Errorf("dim-4 recovery at shards=%d differs from workers=1\n  one: %s\n  got: %s", shards, want, got)
		}
	}
}

// TestMachineSoakChaosShardInvariantDim4 pins the partitioned-machine
// E18 path: the dim-4 chaos soak — detector, spare remaps, rollbacks,
// and the fault-free golden-twin fingerprint gate — must hold its gate
// and produce a byte-identical report at every worker count.
func TestMachineSoakChaosShardInvariantDim4(t *testing.T) {
	if testing.Short() {
		t.Skip("soak twin run is slow")
	}
	mkCfg := func(shards int) Config {
		return Config{Dim: 4, Reps: 2, Phases: 3, Rows: 30, Seed: 1,
			Pad:          500 * sim.Millisecond,
			Chaos:        &fault.Chaos{Seed: 11, Crashes: 1, Hangs: 1, BER: 1e-9},
			KernelShards: shards}
	}
	want := reportBytes(t, "soak", mkCfg(1))
	for _, shards := range []int{2, 4} {
		if got := reportBytes(t, "soak", mkCfg(shards)); string(got) != string(want) {
			t.Errorf("dim-4 chaos soak at shards=%d differs from workers=1\n  one: %s\n  got: %s", shards, want, got)
		}
	}
}

// TestMachineSoakChaosShardInvariantDim6 carries the chaos soak's
// worker-invariance contract to an eight-module machine, where seven
// boards post their detector verdicts to module 0 across shards: the
// report must hold the golden-twin gate and be byte-identical at 1, 2
// and 4 host workers.
func TestMachineSoakChaosShardInvariantDim6(t *testing.T) {
	if testing.Short() {
		t.Skip("soak twin run is slow")
	}
	mkCfg := func(shards int) Config {
		return Config{Dim: 6, Reps: 2, Phases: 3, Rows: 30, Seed: 1,
			Pad:          500 * sim.Millisecond,
			Chaos:        &fault.Chaos{Seed: 11, Dur: 20 * sim.Second, Crashes: 1, Hangs: 1, BER: 1e-9},
			KernelShards: shards}
	}
	want := reportBytes(t, "soak", mkCfg(1))
	for _, shards := range []int{2, 4} {
		if got := reportBytes(t, "soak", mkCfg(shards)); string(got) != string(want) {
			t.Errorf("dim-6 chaos soak at shards=%d differs from workers=1\n  one: %s\n  got: %s", shards, want, got)
		}
	}
}

// TestPortedWorkloadsShardInvariantDim4 runs the machine workloads that
// once built a single kernel — saxpy, matmul, fft, stencil and dlu — at
// dim 4, where the machine has two modules and so two shards: every
// process runs on its node's shard and every result that several shards
// produce lands in per-node slots. The report must be byte-identical at
// 1, 2 and 4 host workers; under the race detector this also catches Go
// state shared across shards.
func TestPortedWorkloadsShardInvariantDim4(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"saxpy", Config{Dim: 4, Rows: 20, Reps: 1}},
		{"matmul", Config{Dim: 4, N: 32, Seed: 3}},
		{"fft", Config{Dim: 4, N: 256, Seed: 3}},
		{"stencil", Config{Dim: 4, N: 32, Iters: 3, Seed: 3}},
		{"dlu", Config{Dim: 4, N: 32, Seed: 3}},
	}
	for _, c := range cases {
		one := c.cfg
		one.KernelShards = 1
		want := reportBytes(t, c.name, one)
		var rep Report
		if err := json.Unmarshal(want, &rep); err != nil {
			t.Fatal(err)
		}
		// saxpy never leaves its nodes; the others exchange across the
		// module boundary.
		if len(rep.Kernel.Shards) != 2 || (rep.Kernel.CrossShard == 0) != (c.name == "saxpy") {
			t.Errorf("%s: %d shards, %d cross-shard events; want the two-module machine's two shards in use",
				c.name, len(rep.Kernel.Shards), rep.Kernel.CrossShard)
		}
		for _, workers := range []int{2, 4} {
			got := c.cfg
			got.KernelShards = workers
			if raw := reportBytes(t, c.name, got); string(raw) != string(want) {
				t.Errorf("%s at dim 4: report at workers=%d differs from workers=1\n  one: %s\n  got: %s",
					c.name, workers, want, raw)
			}
		}
	}
}

// TestLatticeShardInvariantDim8 carries the worker-invariance contract
// to a 32-module machine: the dim-8 lattice exchanges halos across
// every cube dimension, so most of its traffic crosses shards, and its
// report must be byte-identical at 1, 2 and 4 host workers.
func TestLatticeShardInvariantDim8(t *testing.T) {
	cfg := Config{Dim: 8, N: 8, Iters: 2, Seed: 1, KernelShards: 1}
	want := reportBytes(t, "lattice", cfg)
	var rep Report
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Kernel.Shards) != 32 || rep.Kernel.CrossShard == 0 {
		t.Fatalf("dim-8 lattice: %d shards, %d cross-shard events; want 32 shards exchanging",
			len(rep.Kernel.Shards), rep.Kernel.CrossShard)
	}
	for _, workers := range []int{2, 4} {
		cfg.KernelShards = workers
		if got := reportBytes(t, "lattice", cfg); string(got) != string(want) {
			t.Errorf("dim-8 lattice at workers=%d differs from workers=1\n  one: %s\n  got: %s", workers, want, got)
		}
	}
}

// TestConcurrentMachinesShareNoTopology runs two dim-4 machines at
// once, one of them taking cross-module link outages. Each machine
// counts its own link changes, so the quiet machine's report must match
// a solo run byte for byte however the two interleave; under the race
// detector this also shows that they share no link state.
func TestConcurrentMachinesShareNoTopology(t *testing.T) {
	quiet := Config{Dim: 4, N: 256, Seed: 3}
	want := reportBytes(t, "fft", quiet)
	done := make(chan error, 1)
	go func() {
		for rep := 0; rep < 3; rep++ {
			plan := &fault.Plan{Seed: 9, Events: []fault.Event{
				{At: 9 * sim.Second, Kind: fault.LinkDown, Node: 0, Dim: 3},
				{At: 20 * sim.Second, Kind: fault.LinkUp, Node: 0, Dim: 3},
			}}
			res, err := FaultTolerantSAXPY(context.Background(), 4, 6, 1, 2*sim.Second, 0, plan)
			if err == nil && (!res.Correct || res.Faults.Detours == 0) {
				err = fmt.Errorf("outage run: correct=%v detours=%d", res.Correct, res.Faults.Detours)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		if got := reportBytes(t, "fft", quiet); string(got) != string(want) {
			t.Fatalf("fft beside an outage run differs from a solo run\n  solo: %s\n  got:  %s", want, got)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}

// TestPRingWorkersScale sanity-checks that pring really exercises the
// shard machinery: a multi-station run must execute multiple windows
// and stage cross-shard traffic, and its per-shard stats must cover
// every station.
func TestPRingWorkersScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 2
	cfg.Rows = 8
	cfg.Iters = 3
	cfg.KernelShards = 4
	r, err := Get("pring")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks := rep.Kernel
	if ks.Windows < 2 {
		t.Errorf("expected multiple conservative windows, got %d", ks.Windows)
	}
	if ks.CrossShard == 0 {
		t.Error("expected cross-shard traffic")
	}
	if len(ks.Shards) != 4 {
		t.Errorf("expected 4 shard summaries, got %d", len(ks.Shards))
	}
	if rep.Bytes == 0 {
		t.Error("ring frames must account link bytes")
	}
	var staged int64
	for _, s := range ks.Shards {
		staged += s.Staged
	}
	if staged != ks.CrossShard {
		t.Errorf("per-shard staged %d != group cross-shard %d", staged, ks.CrossShard)
	}
}

// TestPRingSeedSensitivity guards against a degenerate pring that
// ignores its inputs: different seeds must change the computed values
// (metrics stay clean) while identical seeds reproduce byte-identically.
func TestPRingSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a := reportBytes(t, "pring", cfg)
	b := reportBytes(t, "pring", cfg)
	if string(a) != string(b) {
		t.Error("same seed must reproduce byte-identically")
	}
	cfg2 := cfg
	cfg2.Seed++
	var ra, rb Report
	if err := json.Unmarshal(a, &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reportBytes(t, "pring", cfg2), &rb); err != nil {
		t.Fatal(err)
	}
	// The simulated timeline is seed-independent (same geometry), but
	// the arithmetic is not — both must verify exactly.
	if ra.Metrics["max_error"] != 0 || rb.Metrics["max_error"] != 0 {
		t.Errorf("verification must be exact: %v vs %v", ra.Metrics["max_error"], rb.Metrics["max_error"])
	}
	if ra.Elapsed != rb.Elapsed {
		t.Errorf("pring timeline should be seed-independent: %v vs %v", ra.Elapsed, rb.Elapsed)
	}
}
