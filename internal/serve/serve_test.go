package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tseries/internal/workloads"
)

// fakeRunner scripts workload behavior through the Options.Lookup seam:
// latency, a failure, a panic, or blocking until the job context is
// canceled. It lets the admission, failure, isolation, and drain paths
// be exercised in milliseconds without the real simulator.
type fakeRunner struct {
	name      string
	flags     []string
	delay     time.Duration
	permanent string
	panicMsg  string
	block     bool
	runs      atomic.Int32
}

func (f *fakeRunner) Name() string    { return f.name }
func (f *fakeRunner) Flags() []string { return append([]string(nil), f.flags...) }

func (f *fakeRunner) Run(cfg workloads.Config) (workloads.Report, error) {
	f.runs.Add(1)
	ctx := cfg.Context()
	if f.panicMsg != "" {
		panic(f.panicMsg)
	}
	if f.block {
		<-ctx.Done()
		return workloads.Report{}, ctx.Err()
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return workloads.Report{}, ctx.Err()
		}
	}
	if f.permanent != "" {
		return workloads.Report{}, fmt.Errorf("%s", f.permanent)
	}
	return workloads.Report{
		Workload: f.name,
		Nodes:    1 << cfg.Dim,
		Metrics:  map[string]float64{"rows": float64(cfg.Rows), "seed": float64(cfg.Seed)},
	}, nil
}

func lookupOf(runners ...*fakeRunner) func(string) (workloads.Runner, error) {
	return func(name string) (workloads.Runner, error) {
		for _, r := range runners {
			if r.name == name {
				return r, nil
			}
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// waitTerminal polls until the job leaves the queued/running states.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st := s.status(j)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func spec(workload string, flags map[string]string) *JobSpec {
	return &JobSpec{Workload: workload, Flags: flags}
}

func TestJobLifecycleToDone(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}, delay: 2 * time.Millisecond}
	s := New(Options{Workers: 2, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	j, fresh, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2", "rows": "7"}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if !fresh {
		t.Fatal("first submission should be fresh")
	}
	st := waitTerminal(t, s, j.id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if st.ResultURL == "" || st.Submitted == "" || st.Started == "" || st.Finished == "" {
		t.Fatalf("incomplete terminal status: %+v", st)
	}
	var rep workloads.Report
	if err := json.Unmarshal(j.body, &rep); err != nil {
		t.Fatalf("result body is not a Report: %v", err)
	}
	if rep.Nodes != 4 || rep.Metrics["rows"] != 7 {
		t.Fatalf("report %+v does not reflect the flags", rep)
	}
}

func TestPermanentFailureIsNotRetried(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: nil, permanent: "verification failed"}
	s := New(Options{Workers: 1, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	j, _, apiErr := s.Submit(spec("fake", nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	st := waitTerminal(t, s, j.id)
	if st.State != StateFailed || st.Error != "verification failed" {
		t.Fatalf("state = %s, err = %q", st.State, st.Error)
	}
	if got := fr.runs.Load(); got != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1", got)
	}
}

// TestPanicIsolatedToJob: a panicking runner poisons its own job —
// failed, stack recorded — and nothing else. The worker that absorbed
// it keeps serving.
func TestPanicIsolatedToJob(t *testing.T) {
	bad := &fakeRunner{name: "bad", panicMsg: "index out of range [8] with length 8"}
	good := &fakeRunner{name: "good"}
	s := New(Options{Workers: 1, Lookup: lookupOf(bad, good)})
	defer s.Drain(time.Second)

	jb, _, apiErr := s.Submit(spec("bad", nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	st := waitTerminal(t, s, jb.id)
	if st.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	s.mu.Lock()
	stack := jb.stack
	s.mu.Unlock()
	if stack == "" {
		t.Fatal("panic stack not recorded")
	}
	// The single worker must have survived to run the next job.
	jg, _, apiErr := s.Submit(spec("good", nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if st := waitTerminal(t, s, jg.id); st.State != StateDone {
		t.Fatalf("job after panic = %s, want done", st.State)
	}
	if got := s.Snapshot().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

func TestJobDeadlineTimesOut(t *testing.T) {
	fr := &fakeRunner{name: "slow", block: true}
	s := New(Options{Workers: 1, JobTimeout: 20 * time.Millisecond, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	j, _, apiErr := s.Submit(spec("slow", nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	st := waitTerminal(t, s, j.id)
	if st.State != StateTimeout {
		t.Fatalf("state = %s (err %q), want timeout", st.State, st.Error)
	}
	if got := s.Snapshot().Timeouts; got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestSingleFlightDedup: identical specs submitted while the first is
// live collapse onto one job, regardless of flag order.
func TestSingleFlightDedup(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}, delay: 50 * time.Millisecond}
	s := New(Options{Workers: 2, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	j1, fresh1, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2", "rows": "9"}))
	if apiErr != nil || !fresh1 {
		t.Fatalf("first submit: %v fresh=%v", apiErr, fresh1)
	}
	j2, fresh2, apiErr := s.Submit(spec("fake", map[string]string{"rows": "9", "dim": "2"}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if fresh2 || j2.id != j1.id {
		t.Fatalf("dedup returned job %s fresh=%v, want %s fresh=false", j2.id, fresh2, j1.id)
	}
	if got := s.Snapshot().Deduped; got != 1 {
		t.Fatalf("deduped counter = %d, want 1", got)
	}
	if st := waitTerminal(t, s, j1.id); st.State != StateDone {
		t.Fatalf("state = %s", st.State)
	}
	if got := fr.runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times for 2 identical submissions, want 1", got)
	}
}

func TestRateLimit(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"rows"}}
	// The pinned clock is read by worker goroutines through the Now
	// seam while the test advances it, so it needs its own lock.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	s := New(Options{Workers: 1, Rate: 1, Burst: 2, Lookup: lookupOf(fr),
		Now: func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }})
	defer s.Drain(time.Second)

	for i := 0; i < 2; i++ {
		if _, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": fmt.Sprint(i)})); apiErr != nil {
			t.Fatalf("submit %d: %v", i, apiErr)
		}
	}
	_, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": "99"}))
	if apiErr == nil || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "rate_limited" {
		t.Fatalf("burst-exceeding submit: %+v, want 429 rate_limited", apiErr)
	}
	// One second later a token has accrued.
	clockMu.Lock()
	now = now.Add(time.Second)
	clockMu.Unlock()
	if _, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": "99"})); apiErr != nil {
		t.Fatalf("submit after refill: %v", apiErr)
	}
}

func TestInFlightQuota(t *testing.T) {
	fr := &fakeRunner{name: "slow", flags: []string{"rows"}, block: true}
	s := New(Options{Workers: 1, MaxInFlight: 1, JobTimeout: 50 * time.Millisecond, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	if _, _, apiErr := s.Submit(spec("slow", map[string]string{"rows": "1"})); apiErr != nil {
		t.Fatal(apiErr)
	}
	_, _, apiErr := s.Submit(spec("slow", map[string]string{"rows": "2"}))
	if apiErr == nil || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "too_many_in_flight" {
		t.Fatalf("over-quota submit: %+v, want 429 too_many_in_flight", apiErr)
	}
}

func TestQueueFullRejectsWithRollback(t *testing.T) {
	fr := &fakeRunner{name: "slow", flags: []string{"rows"}, block: true}
	s := New(Options{Workers: 1, Queue: 1, JobTimeout: 50 * time.Millisecond, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)

	// First job occupies the worker, second fills the queue.
	if _, _, apiErr := s.Submit(spec("slow", map[string]string{"rows": "1"})); apiErr != nil {
		t.Fatal(apiErr)
	}
	waitRunning := time.Now().Add(time.Second)
	for s.Snapshot().QueueDepth != 0 {
		if time.Now().After(waitRunning) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, apiErr := s.Submit(spec("slow", map[string]string{"rows": "2"})); apiErr != nil {
		t.Fatal(apiErr)
	}
	_, _, apiErr := s.Submit(spec("slow", map[string]string{"rows": "3"}))
	if apiErr == nil || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "queue_full" {
		t.Fatalf("overflow submit: %+v, want 429 queue_full", apiErr)
	}
	// Rollback must have released the single-flight slot: once capacity
	// frees up the same spec is admissible again (not deduped onto a
	// ghost).
	st := s.Snapshot()
	if st.RejectedQueueFull != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", st.RejectedQueueFull)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"rows"}, delay: 5 * time.Millisecond}
	s := New(Options{Workers: 2, Queue: 16, Lookup: lookupOf(fr)})

	var ids []string
	for i := 0; i < 8; i++ {
		j, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": fmt.Sprint(i)}))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		ids = append(ids, j.id)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	for _, id := range ids {
		j, _ := s.Job(id)
		if st := s.status(j); st.State != StateDone {
			t.Fatalf("job %s = %s after graceful drain, want done", id, st.State)
		}
	}
	// Draining server refuses new work with a 503.
	_, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": "77"}))
	if apiErr == nil || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "draining" {
		t.Fatalf("post-drain submit: %+v, want 503 draining", apiErr)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestForcedDrainCancelsBlockedJobs(t *testing.T) {
	fr := &fakeRunner{name: "stuck", block: true}
	s := New(Options{Workers: 1, JobTimeout: time.Hour, Lookup: lookupOf(fr)})

	j, _, apiErr := s.Submit(spec("stuck", nil))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	// Wait for it to be running, then drain with a deadline it cannot
	// meet.
	deadline := time.Now().Add(time.Second)
	for {
		st := s.status(j)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(20 * time.Millisecond); err == nil {
		t.Fatal("forced drain should report the missed deadline")
	}
	if st := s.status(j); st.State != StateCanceled {
		t.Fatalf("blocked job = %s after forced drain, want canceled", st.State)
	}
}

// TestOverloadSoak is the robustness acceptance test: N clients slam a
// server with a K-deep queue (N≫K). Overflow must be rejected with
// 429s, every admitted job must complete within its deadline, a cached
// re-submission must return byte-identical results, and after drain no
// goroutine may linger.
func TestOverloadSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fr := &fakeRunner{name: "fake", flags: []string{"rows"}, delay: 2 * time.Millisecond}
	s := New(Options{
		Workers: 2, Queue: 4, JobTimeout: 5 * time.Second,
		Rate: 1e6, Burst: 1e6, MaxInFlight: 1 << 20,
		Lookup: lookupOf(fr),
	})

	const clients = 64
	var mu sync.Mutex
	var admittedIDs []string
	var admittedRows []int
	var rejected int
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": fmt.Sprint(i)}))
			mu.Lock()
			defer mu.Unlock()
			if apiErr != nil {
				if apiErr.Status != http.StatusTooManyRequests {
					t.Errorf("client %d: unexpected rejection %+v", i, apiErr)
				}
				rejected++
				return
			}
			admittedIDs = append(admittedIDs, j.id)
			admittedRows = append(admittedRows, i)
		}(i)
	}
	wg.Wait()

	if rejected == 0 {
		t.Fatalf("%d clients against a queue of 4 produced no 429s", clients)
	}
	if len(admittedIDs) == 0 {
		t.Fatal("no client was admitted")
	}
	t.Logf("soak: %d admitted, %d rejected", len(admittedIDs), rejected)

	bodies := map[int][]byte{}
	for k, id := range admittedIDs {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("admitted job %s = %s (err %q), want done", id, st.State, st.Error)
		}
		j, _ := s.Job(id)
		bodies[admittedRows[k]] = j.body
	}

	// Cached re-submission: byte-identical to the original run.
	row := admittedRows[0]
	j2, fresh, apiErr := s.Submit(spec("fake", map[string]string{"rows": fmt.Sprint(row)}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if fresh {
		t.Fatal("re-submission of a completed spec should hit the cache, not queue")
	}
	st := s.status(j2)
	if st.State != StateDone || !st.Cached {
		t.Fatalf("cache hit status = %+v", st)
	}
	if string(j2.body) != string(bodies[row]) {
		t.Fatalf("cached body differs from original:\n%s\n---\n%s", j2.body, bodies[row])
	}
	if s.Snapshot().CacheHits == 0 {
		t.Fatal("cache_hits counter did not move")
	}

	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after drain: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainMidSoak: SIGTERM while clients are still submitting — the
// drain must stop admissions (503s), complete everything admitted, and
// unwind the pool.
func TestDrainMidSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fr := &fakeRunner{name: "fake", flags: []string{"rows"}, delay: 3 * time.Millisecond}
	s := New(Options{
		Workers: 2, Queue: 16, JobTimeout: 5 * time.Second,
		Rate: 1e6, Burst: 1e6, MaxInFlight: 1 << 20,
		Lookup: lookupOf(fr),
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted []string
	var drained int
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			j, _, apiErr := s.Submit(spec("fake", map[string]string{"rows": fmt.Sprint(i)}))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case apiErr == nil:
				admitted = append(admitted, j.id)
			case apiErr.Code == "draining":
				drained++
			case apiErr.Status == http.StatusTooManyRequests:
				// acceptable under load
			default:
				t.Errorf("client %d: unexpected rejection %+v", i, apiErr)
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain mid-soak: %v", err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if drained == 0 {
		t.Log("note: all clients beat the drain; admission-side 503 not exercised this run")
	}
	for _, id := range admitted {
		j, _ := s.Job(id)
		if st := s.status(j); st.State != StateDone {
			t.Fatalf("admitted job %s = %s after drain, want done", id, st.State)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after mid-soak drain: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKernelShardsHostingKnob pins the serving contract of the
// parallel-kernel knob end to end: kernel_shards is validated at parse
// time, excluded from the content key (a sharded resubmission of a
// completed run is a cache hit), degraded to the available shard budget
// rather than queued, and reported through the shard and sim counters.
func TestKernelShardsHostingKnob(t *testing.T) {
	for _, bad := range []string{
		`{"workload":"pring","kernel_shards":-1}`,
		`{"workload":"pring","kernel_shards":65}`,
	} {
		if _, apiErr := ParseJobSpec([]byte(bad)); apiErr == nil || apiErr.Code != "bad_spec" {
			t.Fatalf("%s: want bad_spec rejection, got %+v", bad, apiErr)
		}
	}
	parsed, apiErr := ParseJobSpec([]byte(`{"workload":"pring","kernel_shards":4}`))
	if apiErr != nil || parsed.KernelShards != 4 {
		t.Fatalf("parse: shards=%d err=%+v", parsed.KernelShards, apiErr)
	}

	s := New(Options{Workers: 1, ShardBudget: 2})
	defer s.Drain(10 * time.Second)
	flags := map[string]string{"dim": "3", "rows": "20", "iters": "2"}

	// A sharded run asking for more workers than the budget holds: it
	// must run anyway (degraded), and the sharded pring workload must
	// land its window/cross-shard work in the aggregate counters.
	j1, fresh, apiErr := s.Submit(&JobSpec{Workload: "pring", Flags: flags, KernelShards: 8})
	if apiErr != nil || !fresh {
		t.Fatalf("sharded submit: fresh=%v err=%+v", fresh, apiErr)
	}
	if st := waitTerminal(t, s, j1.id); st.State != StateDone {
		t.Fatalf("sharded job = %s (err %q), want done", st.State, st.Error)
	}
	snap := s.Snapshot()
	if snap.ShardDegraded != 1 {
		t.Fatalf("shard_degraded = %d, want 1 (asked 8, budget %d)", snap.ShardDegraded, snap.ShardBudget)
	}
	if snap.ShardInUse != 0 {
		t.Fatalf("shard_in_use = %d after finish, want 0", snap.ShardInUse)
	}
	if snap.SimEvents <= 0 || snap.SimWindows <= 0 || snap.SimCrossShard <= 0 {
		t.Fatalf("sim counters not accumulated: %+v", snap)
	}

	// Same workload and flags without kernel_shards: the knob is not part
	// of the content key, so this is a cache hit with the same bytes.
	j2, fresh, apiErr := s.Submit(&JobSpec{Workload: "pring", Flags: flags})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if fresh {
		t.Fatal("serial resubmission should hit the cache: kernel_shards must not be part of the key")
	}
	if st := s.status(j2); st.State != StateDone || !st.Cached {
		t.Fatalf("expected a cache-hit job, got %+v", st)
	}
	if string(j2.body) != string(j1.body) {
		t.Fatalf("serial cache body differs from sharded run:\n%s\n---\n%s", j2.body, j1.body)
	}
}
