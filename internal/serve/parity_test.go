package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tseries/internal/workloads"
)

// These tests run the real registries through the service and pin the
// contract that makes the result cache sound: a job's canonical key
// depends only on its resolved parameters (never on flag order or
// submission path), and the body the service stores is byte-identical
// to what the tsim CLI prints for the same run.

func keyOf(t *testing.T, name string, flags map[string]string) string {
	t.Helper()
	r, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tk, apiErr := resolveWorkload(&JobSpec{Workload: name, Flags: flags}, r)
	if apiErr != nil {
		t.Fatalf("resolve %v: %v", flags, apiErr)
	}
	return tk.key
}

func TestCacheKeyIgnoresFlagOrderAndExplicitDefaults(t *testing.T) {
	base := keyOf(t, "saxpy", map[string]string{"dim": "2", "rows": "50", "reps": "3"})
	for _, flags := range []map[string]string{
		{"rows": "50", "reps": "3", "dim": "2"},
		{"reps": "3", "dim": "2", "rows": "50"},
		{"dim": "2", "rows": "50", "reps": "3", "seed": "1"}, // seed=1 is the default
	} {
		if got := keyOf(t, "saxpy", flags); got != base {
			t.Fatalf("key for %v = %q, want %q", flags, got, base)
		}
	}
	// An omitted flag resolves to its default, so spelling the default
	// out cannot split the cache line.
	if a, b := keyOf(t, "saxpy", nil), keyOf(t, "saxpy", map[string]string{"dim": "3"}); a != b {
		t.Fatalf("explicit default dim=3 changed the key: %q vs %q", b, a)
	}
	// Any changed value must move the key.
	for flag, val := range map[string]string{"dim": "4", "rows": "51", "reps": "9", "seed": "2"} {
		if got := keyOf(t, "saxpy", map[string]string{flag: val}); got == keyOf(t, "saxpy", nil) {
			t.Fatalf("changing %s=%s did not change the key", flag, val)
		}
	}
}

// TestIntegerFlagsParseLikeTsim: job flag values go through tsim's own
// flag table, so an integer means the same in a job spec as on the tsim
// command line ("010" is 8, "0x10" is 16), and the content keys below —
// one with a fault plan — are byte-identical to the ones tsimd computed
// before the table was shared, so stored results keep their addresses.
func TestIntegerFlagsParseLikeTsim(t *testing.T) {
	for _, c := range []struct {
		workload string
		flags    map[string]string
		key      string
	}{
		{"saxpy", map[string]string{"dim": "010", "rows": "0x10", "reps": "1_000", "seed": "-2"},
			"dim=8;reps=1000;rows=16;seed=-2;workload=saxpy"},
		{"recovery", map[string]string{"dim": "2", "phases": "6", "faults": "seed=7,ber=1e-6,crash=2@22s", "ckpt": "8s", "pad": "1500ms"},
			"ckpt=8000000000000;dim=2;faults=seed=7,ber=1e-6,crash=2@22s;pad=1500000000000;phases=6;rows=100;seed=1;workload=recovery"},
	} {
		if got := keyOf(t, c.workload, c.flags); got != c.key {
			t.Errorf("%s %v: key %q, want %q", c.workload, c.flags, got, c.key)
		}
	}
	r, err := workloads.Get("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, val, code string }{
		{"kernel-shards", "2", "unknown_flag"}, // hosting knob: JobSpec.KernelShards carries it
		{"iters", "2", "unknown_flag"},         // a Config knob saxpy does not read
		{"dim", "08", "bad_flag"},              // octal, as on the command line
		{"seed", "x", "bad_flag"},
	} {
		_, apiErr := resolveWorkload(&JobSpec{Workload: "saxpy", Flags: map[string]string{c.name: c.val}}, r)
		if apiErr == nil || apiErr.Code != c.code {
			t.Errorf("saxpy %s=%s: got %v, want code %s", c.name, c.val, apiErr, c.code)
		}
	}
}

// TestCacheKeyProperty: across randomly drawn flag assignments, two
// specs map to the same key exactly when their resolved values agree.
func TestCacheKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() map[string]string {
		flags := map[string]string{}
		if rng.Intn(2) == 0 {
			flags["dim"] = fmt.Sprint(rng.Intn(3) + 1)
		}
		if rng.Intn(2) == 0 {
			flags["rows"] = fmt.Sprint(rng.Intn(4)*10 + 10)
		}
		if rng.Intn(2) == 0 {
			flags["reps"] = fmt.Sprint(rng.Intn(3) + 1)
		}
		if rng.Intn(2) == 0 {
			flags["seed"] = fmt.Sprint(rng.Intn(3) + 1)
		}
		return flags
	}
	resolved := func(flags map[string]string) string {
		pick := func(k, def string) string {
			if v, ok := flags[k]; ok {
				return v
			}
			return def
		}
		return pick("dim", "3") + "/" + pick("rows", "100") + "/" + pick("reps", "1") + "/" + pick("seed", "1")
	}
	for i := 0; i < 200; i++ {
		a, b := draw(), draw()
		ka, kb := keyOf(t, "saxpy", a), keyOf(t, "saxpy", b)
		if (ka == kb) != (resolved(a) == resolved(b)) {
			t.Fatalf("specs %v and %v: keys %q/%q but resolved %q/%q",
				a, b, ka, kb, resolved(a), resolved(b))
		}
	}
}

// TestCachedBodyByteIdenticalToDirectRun: the service's stored body for
// a real workload equals encoding the runner's Report directly — the
// same bytes `tsim -workload saxpy -dim 1 -rows 5 -json` prints.
func TestCachedBodyByteIdenticalToDirectRun(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(5 * time.Second)
	flags := map[string]string{"dim": "1", "rows": "5"}

	j, fresh, apiErr := s.Submit(&JobSpec{Workload: "saxpy", Flags: flags})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if !fresh {
		t.Fatal("first submission should queue")
	}
	if st := waitTerminal(t, s, j.id); st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}

	cfg := workloads.DefaultConfig()
	cfg.Dim, cfg.Rows = 1, 5
	r, err := workloads.Get("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := encodeBody(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.body, direct) {
		t.Fatalf("service body differs from direct run:\n%s\n---\n%s", j.body, direct)
	}

	// The cached replay must serve those exact bytes.
	j2, fresh2, apiErr := s.Submit(&JobSpec{Workload: "saxpy", Flags: flags})
	if apiErr != nil || fresh2 {
		t.Fatalf("re-submit: %v fresh=%v", apiErr, fresh2)
	}
	st2 := s.status(j2)
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("re-submit status %+v, want cached done", st2)
	}
	if !bytes.Equal(j2.body, direct) {
		t.Fatal("cached body is not byte-identical to the direct run")
	}
}

// TestServerParallelismDoesNotChangeBytes: the same job set on a
// 1-worker and a 4-worker server produces byte-identical bodies —
// the service inherits the simulator's serial/parallel determinism.
func TestServerParallelismDoesNotChangeBytes(t *testing.T) {
	specs := []map[string]string{
		{"dim": "0", "rows": "8"},
		{"dim": "1", "rows": "8"},
		{"dim": "2", "rows": "8"},
		{"dim": "3", "rows": "8"},
	}
	run := func(workers int) map[string][]byte {
		s := New(Options{Workers: workers})
		defer s.Drain(10 * time.Second)
		ids := map[string]string{}
		for _, flags := range specs {
			j, _, apiErr := s.Submit(&JobSpec{Workload: "saxpy", Flags: flags})
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			ids[flags["dim"]] = j.id
		}
		out := map[string][]byte{}
		for dim, id := range ids {
			if st := waitTerminal(t, s, id); st.State != StateDone {
				t.Fatalf("dim %s: state %s (err %q)", dim, st.State, st.Error)
			}
			j, _ := s.Job(id)
			out[dim] = j.body
		}
		return out
	}
	serial, parallel := run(1), run(4)
	for dim, want := range serial {
		if !bytes.Equal(parallel[dim], want) {
			t.Fatalf("dim %s: 4-worker body differs from 1-worker body", dim)
		}
	}
}

// TestExperimentResultMatchesGolden replays an experiment through the
// service and checks it against the CLI golden fixture that pins
// `tsim -experiment all -json` — service results and CLI results are
// the same bytes field for field.
func TestExperimentResultMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "tsim", "testdata", "experiment_all_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []experimentBody
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var want *experimentBody
	for i := range golden {
		if golden[i].ID == "E1" {
			want = &golden[i]
			break
		}
	}
	if want == nil {
		t.Fatal("golden fixture has no E1 entry")
	}

	s := New(Options{Workers: 1})
	defer s.Drain(30 * time.Second)
	j, _, apiErr := s.Submit(&JobSpec{Experiment: "E1"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if st := waitTerminal(t, s, j.id); st.State != StateDone {
		t.Fatalf("E1 job state = %s (err %q)", st.State, st.Error)
	}
	var got experimentBody
	if err := json.Unmarshal(j.body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Fatalf("E1 output differs from golden:\n%s\n--- golden ---\n%s", got.Output, want.Output)
	}
	if got.Title != want.Title || fmt.Sprint(got.Metrics) != fmt.Sprint(want.Metrics) {
		t.Fatalf("E1 header differs from golden: %+v vs %+v", got, want)
	}
}
