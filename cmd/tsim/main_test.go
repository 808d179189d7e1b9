package main

import (
	"context"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), &out, &errb, args)
	return code, out.String(), errb.String()
}

// Unknown names must exit non-zero and tell the user what is valid —
// the registry error messages carry the lists.
func TestUnknownWorkloadListsValidAndExitsNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "bogus")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, name := range []string{"bogus", "saxpy", "matmul", "recovery"} {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr %q does not mention %q", stderr, name)
		}
	}
}

func TestUnknownExperimentListsValidAndExitsNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, "-experiment", "E99")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, id := range []string{"E99", "E1", "E17", "A6"} {
		if !strings.Contains(stderr, id) {
			t.Fatalf("stderr %q does not mention %q", stderr, id)
		}
	}
}

func TestListShowsBothRegistries(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"E1", "A6", "saxpy", "stencil", "-dim"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-experiment") || !strings.Contains(stderr, "saxpy") {
		t.Fatalf("usage should name the flags and registries:\n%s", stderr)
	}
}

func TestBadSweepSpec(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "saxpy", "-sweep", "nodes=1..4")
	if code != 2 || !strings.Contains(stderr, "dim=LO..HI") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

// Interrupt semantics: a canceled run context must exit 130 (128 +
// SIGINT), report the interrupt on stderr, and emit no partial JSON on
// stdout — downstream pipes see either a complete document or nothing.
func TestInterruptExits130AndSuppressesJSON(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-workload", "saxpy", "-dim", "2", "-rows", "50", "-json"},
		{"-workload", "saxpy", "-sweep", "dim=1..3", "-rows", "50", "-json"},
		{"-experiment", "E1", "-json"},
	} {
		var out, errb bytes.Buffer
		code := run(ctx, &out, &errb, args)
		if code != interruptExit {
			t.Fatalf("%v: exit = %d, want %d (stderr: %s)", args, code, interruptExit, errb.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: interrupted run wrote partial output:\n%s", args, out.String())
		}
		if !strings.Contains(errb.String(), "interrupted") {
			t.Fatalf("%v: stderr %q does not mention the interrupt", args, errb.String())
		}
	}
}

func TestWorkloadJSONRoundTrips(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-workload", "saxpy", "-dim", "1", "-rows", "5", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	var rep struct {
		Workload string
		Nodes    int
		Elapsed  int64
		Kernel   struct{ Events int64 }
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if rep.Workload != "saxpy" || rep.Nodes != 2 || rep.Elapsed <= 0 || rep.Kernel.Events == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestExperimentAllGolden pins the full-suite JSON output to a
// checked-in golden file. The kernel guarantees deterministic event
// ordering, so any byte of drift here is a scheduling-order regression,
// not noise. Regenerate (after an intentional semantic change) with:
//
//	go run ./cmd/tsim -experiment all -json > cmd/tsim/testdata/experiment_all_golden.json
func TestExperimentAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is too slow for -short")
	}
	code, stdout, stderr := runCLI(t, "-experiment", "all", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	assertGolden(t, "experiment_all_golden.json", stdout)
}

// TestRecoveryBERGolden pins a fault-injected recovery run whose
// BER-1e-6 link stream corrupts about 41% of 64 KB snapshot frames, so
// the nack, retransmit and checkpoint paths all leave their mark on the
// bytes. It is the ckpt-recovery benchmark workload's configuration at
// seed 1, and it must hold at every kernel worker count.
func TestRecoveryBERGolden(t *testing.T) {
	for _, workers := range []string{"1", "2"} {
		code, stdout, stderr := runCLI(t, "-workload", "recovery", "-dim", "5", "-phases", "8", "-ckpt", "2s",
			"-faults", "seed=1,ber=1e-6,crash=2@12s", "-json", "-kernel-shards", workers)
		if code != 0 {
			t.Fatalf("workers=%s: exit = %d, stderr: %s", workers, code, stderr)
		}
		assertGolden(t, "recovery_dim5_ber1e-6_golden.json", stdout)
	}
}

// TestMultiModuleWorkloadsGolden pins saxpy, matmul, fft, stencil and
// dlu at dims 4 and 5 (two and four modules) to reports captured from
// the monolithic single-kernel build that preceded one-shard-per-module
// machines. Every top-level report field must match the capture byte
// for byte, at every worker count, except Kernel: a partitioned run's
// engine statistics carry per-shard counts the monolithic kernel never
// had. Regenerate only after an intentional timing change, by running
// each case's args with -json and dropping the Kernel field.
func TestMultiModuleWorkloadsGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "workloads_multimodule_golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var cases []struct {
		Args   []string                   `json:"args"`
		Report map[string]json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("parsing golden: %v", err)
	}
	if len(cases) != 10 {
		t.Fatalf("golden holds %d cases, want 10", len(cases))
	}
	compact := func(v json.RawMessage) string {
		var b bytes.Buffer
		if err := json.Compact(&b, v); err != nil {
			t.Fatalf("compacting %s: %v", v, err)
		}
		return b.String()
	}
	for _, c := range cases {
		for _, workers := range []string{"1", "4"} {
			args := append(append([]string(nil), c.Args...), "-json", "-kernel-shards", workers)
			code, stdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit = %d, stderr: %s", args, code, stderr)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal([]byte(stdout), &got); err != nil {
				t.Fatalf("%v: bad JSON: %v", args, err)
			}
			if _, ok := got["Kernel"]; !ok {
				t.Fatalf("%v: report has no Kernel field", args)
			}
			delete(got, "Kernel")
			if len(got) != len(c.Report) {
				t.Errorf("%v: %d report fields besides Kernel, golden has %d", args, len(got), len(c.Report))
			}
			for field, want := range c.Report {
				raw, ok := got[field]
				if !ok {
					t.Errorf("%v: report lacks %s", args, field)
					continue
				}
				if g, w := compact(raw), compact(want); g != w {
					t.Errorf("%v: %s = %s, golden %s", args, field, g, w)
				}
			}
		}
	}
}

// assertGolden fails the test unless got equals testdata/name byte for
// byte, quoting the neighbourhood of the first differing byte.
func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got == string(want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo, hi := i-60, i+60
	if lo < 0 {
		lo = 0
	}
	ctx := func(b string) string {
		h := hi
		if h > len(b) {
			h = len(b)
		}
		if lo >= h {
			return ""
		}
		return b[lo:h]
	}
	t.Fatalf("output differs from %s at byte %d (got %d bytes, want %d)\n got: …%q…\nwant: …%q…",
		name, i, len(got), len(want), ctx(got), ctx(string(want)))
}

// TestKernelShardsFlagIsOutputInvariant pins the CLI-level determinism
// contract: -kernel-shards changes only how many host workers execute
// the simulation, never a byte of output. pring shards one station per
// shard; experiments build their machines one shard per module, and
// print nothing about the flag on stderr.
func TestKernelShardsFlagIsOutputInvariant(t *testing.T) {
	base := []string{"-workload", "pring", "-dim", "3", "-rows", "40", "-iters", "3", "-json"}
	code, want, stderr := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("serial exit = %d, stderr: %s", code, stderr)
	}
	for _, shards := range []string{"2", "4"} {
		code, got, stderr := runCLI(t, append([]string{"-kernel-shards", shards}, base...)...)
		if code != 0 {
			t.Fatalf("shards=%s: exit = %d, stderr: %s", shards, code, stderr)
		}
		if got != want {
			t.Fatalf("shards=%s: output differs from serial\nserial: %s\nsharded: %s", shards, want, got)
		}
	}

	// Experiments partition machine builds by geometry and treat the flag
	// as a worker count, so their output must be flag-invariant with no
	// advisory chatter on stderr.
	code, want, stderr = runCLI(t, "-experiment", "E1", "-json")
	if code != 0 {
		t.Fatalf("E1 serial exit = %d, stderr: %s", code, stderr)
	}
	code, got, stderr := runCLI(t, "-experiment", "E1", "-json", "-kernel-shards", "4")
	if code != 0 {
		t.Fatalf("E1 sharded exit = %d, stderr: %s", code, stderr)
	}
	if got != want {
		t.Fatalf("E1: -kernel-shards changed experiment output\nserial: %s\nsharded: %s", want, got)
	}
	if strings.Contains(stderr, "serial plan") {
		t.Fatalf("stale serial-plan note still on stderr: %q", stderr)
	}
}

// TestProfileFlagsWriteFiles checks -cpuprofile/-memprofile wrap a
// normal run and leave non-empty pprof files behind.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-workload", "sort", "-n", "32", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestExperimentSubsetRunsInRequestedOrder checks the comma-list path
// end to end on two cheap experiments.
func TestExperimentSubsetRunsInRequestedOrder(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-experiment", "E7,E1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	i7, i1 := strings.Index(stdout, "### E7"), strings.Index(stdout, "### E1 ")
	if i7 < 0 || i1 < 0 || i7 > i1 {
		t.Fatalf("expected E7 before E1:\n%s", stdout)
	}
}

// TestPreSparseGoldenPreserved pins the compatibility contract of the
// sparse-memory / dedup-disk rewrite: every experiment recorded in the
// golden BEFORE node memory went sparse (archived as
// experiment_all_pre_sparse.json) must still appear byte-for-byte in
// today's golden. Sparsity is a host-representation change only — every
// simulated time, counter, and fault fingerprint must survive it.
func TestPreSparseGoldenPreserved(t *testing.T) {
	load := func(name string) map[string]json.RawMessage {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		var results []json.RawMessage
		if err := json.Unmarshal(raw, &results); err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		out := map[string]json.RawMessage{}
		for _, r := range results {
			var id struct{ ID string }
			if err := json.Unmarshal(r, &id); err != nil {
				t.Fatalf("parsing %s entry: %v", name, err)
			}
			out[id.ID] = r
		}
		return out
	}
	pre := load("experiment_all_pre_sparse.json")
	cur := load("experiment_all_golden.json")
	if len(pre) == 0 {
		t.Fatal("pre-sparse golden is empty")
	}
	for id, want := range pre {
		got, ok := cur[id]
		if !ok {
			t.Errorf("experiment %s vanished from the current golden", id)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("experiment %s drifted from its pre-sparse output", id)
		}
	}
}
