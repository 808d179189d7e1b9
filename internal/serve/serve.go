package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tseries/internal/core"
	"tseries/internal/durable"
	"tseries/internal/workloads"
)

// Job lifecycle states. A job moves queued → running → one of the
// terminal states; cache hits are born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateTimeout  = "timeout"
	StateCanceled = "canceled"
)

// PanicError records a panic that escaped a job's runner. The job is
// marked failed with the stack attached; the worker, its pool, and
// every other job are unaffected.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "runner panicked: " + e.Value }

// Options configures a Server. Zero values pick the defaults noted on
// each field.
type Options struct {
	Queue       int           // queue capacity (default 64)
	Workers     int           // worker goroutines (default 4)
	CacheCap    int           // result-cache entries (default 256; <0 disables)
	JobTimeout  time.Duration // per-job deadline (default 2m)
	Rate        float64       // per-tenant submissions/sec (default 50)
	Burst       float64       // per-tenant burst (default 100)
	MaxInFlight int           // per-tenant queued+running ceiling (default 32)

	// DataDir roots the server's crash-safety state: a write-ahead job
	// journal under <DataDir>/journal and a content-addressed result
	// store under <DataDir>/store. Empty (the default) runs memory-only:
	// a crash loses queued jobs and uncached results. With a data dir,
	// accepted jobs and completed results survive SIGKILL — Open replays
	// the journal on startup, re-running interrupted jobs and serving
	// completed ones from the store.
	DataDir string
	// SegmentBytes rotates journal segments past this size (default 1 MiB).
	SegmentBytes int64
	// DiskFaults injects planned host-disk failures into the durable
	// layer (tests of the degrade-to-memory path). Nil in production.
	DiskFaults *durable.DiskFaults
	// Logf receives operational warnings (durability degradation,
	// recovery notes). Defaults to log.Printf.
	Logf func(format string, args ...interface{})

	// ShardBudget bounds the extra kernel-shard workers live across the
	// whole pool (default 2×Workers; <0 disables sharding entirely).
	// Every running job implicitly owns one worker; a job submitted with
	// kernel_shards > 1 draws its additional shards-1 workers from this
	// budget at start and returns them at finish. When the budget cannot
	// cover the request the job runs with whatever is available — down to
	// serial — rather than waiting: kernel shards are physical
	// parallelism only, so degrading changes wall-clock, never results.
	ShardBudget int

	// Lookup resolves a workload name; defaults to workloads.Get. Tests
	// substitute fake runners here to script failures, panics, and
	// latency without touching the registries.
	Lookup func(name string) (workloads.Runner, error)
	// FindExperiment resolves an experiment ID; defaults to core.Find.
	FindExperiment func(id string) (core.Experiment, error)
	// Now is the admission clock; defaults to time.Now. Tests pin it to
	// drive the rate limiter deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CacheCap == 0 {
		o.CacheCap = 256
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.Rate <= 0 {
		o.Rate = 50
	}
	if o.Burst <= 0 {
		o.Burst = 100
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 32
	}
	if o.ShardBudget == 0 {
		o.ShardBudget = 2 * o.Workers
	} else if o.ShardBudget < 0 {
		o.ShardBudget = 0
	}
	if o.Lookup == nil {
		o.Lookup = workloads.Get
	}
	if o.FindExperiment == nil {
		o.FindExperiment = core.Find
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// job is one admitted submission.
type job struct {
	id        string
	tenant    string
	task      task
	recovered bool            // re-registered from the journal after a restart
	charged   bool            // holds a limiter in-flight slot (released in finish)
	spec      json.RawMessage // canonical submission body, journaled for replay

	// Guarded by Server.mu.
	state     string
	cached    bool // satisfied from the result cache at admission
	body      []byte
	errMsg    string
	stack     string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// counters are the service's health numbers, all monotonic except
// queueDepth which is read live from the channel.
type counters struct {
	admitted          atomic.Int64
	deduped           atomic.Int64
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedRate      atomic.Int64
	rejectedQuota     atomic.Int64
	rejectedDraining  atomic.Int64
	completed         atomic.Int64
	failed            atomic.Int64
	timeouts          atomic.Int64
	canceled          atomic.Int64
	panics            atomic.Int64
	shardDegraded     atomic.Int64 // jobs granted fewer shard workers than requested
	simEvents         atomic.Int64 // kernel events executed by completed workload runs
	simWindows        atomic.Int64 // conservative windows executed by sharded runs
	simCrossShard     atomic.Int64 // events staged across shard boundaries

	// Host-footprint totals across completed machine workloads: sparse
	// node-memory residency and checkpoint dedup on the system disks.
	memRowsMaterialized atomic.Int64
	memCowCopies        atomic.Int64
	memResidentBytes    atomic.Int64
	diskRowsCopied      atomic.Int64
	diskRowsShared      atomic.Int64
}

// Server is the job service: admission control in front of a bounded
// queue, a worker pool executing jobs under per-job deadlines, a
// content-addressed result cache, and a graceful drain path.
type Server struct {
	opts    Options
	limiter *limiter
	cache   *resultCache
	ctr     counters
	dur     *durability // nil when memory-only (no Options.DataDir)

	baseCtx    context.Context // parent of every job context; canceled by a forced drain
	cancelBase context.CancelFunc

	// admitMu orders submissions against drain: submissions hold the
	// read side across the queue send, Drain takes the write side to
	// flip draining and close the queue, so no send can race the close.
	admitMu  sync.RWMutex
	draining bool
	queue    chan *job

	mu     sync.Mutex
	seq    int
	jobs   map[string]*job
	active map[string]*job // content key → live job, for single-flight dedup

	// shardMu guards shardInUse, the extra shard workers currently drawn
	// from Options.ShardBudget.
	shardMu    sync.Mutex
	shardInUse int

	workerWG sync.WaitGroup
}

// acquireShards grants a job as much of its kernel-shard request as the
// budget can cover right now and returns the effective worker count
// (≥ 1). It never blocks: shards are physical parallelism only, so a
// job short on budget degrades toward serial instead of waiting.
func (s *Server) acquireShards(want int) int {
	if want <= 1 {
		return 1
	}
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	extra := want - 1
	if avail := s.opts.ShardBudget - s.shardInUse; extra > avail {
		extra = avail
	}
	if extra < 0 {
		extra = 0
	}
	s.shardInUse += extra
	return 1 + extra
}

// releaseShards returns a job's extra shard workers to the budget.
func (s *Server) releaseShards(got int) {
	if got <= 1 {
		return
	}
	s.shardMu.Lock()
	s.shardInUse -= got - 1
	s.shardMu.Unlock()
}

// New builds a memory-only Server and starts its worker pool. For a
// crash-safe server with a data dir use Open, which can fail (a corrupt
// journal refuses recovery).
func New(opts Options) *Server {
	opts.DataDir = ""
	s, err := Open(opts)
	if err != nil {
		panic("serve: memory-only New failed: " + err.Error()) // unreachable: only DataDir paths error
	}
	return s
}

// Open builds a Server and starts its worker pool. With Options.DataDir
// set it first recovers the previous process's state: the job journal
// is replayed (completed jobs re-registered against the result store,
// interrupted jobs re-queued for a deterministic re-run) and /readyz
// stays unready until every recovered job reaches a terminal state.
// Mid-file journal corruption aborts with a *durable.CorruptError in
// the chain — by design Open refuses to serve from lying history.
func Open(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		limiter:    newLimiter(opts.Rate, opts.Burst, opts.MaxInFlight),
		cache:      newResultCache(opts.CacheCap),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       map[string]*job{},
		active:     map[string]*job{},
	}
	var requeue []*job
	if opts.DataDir != "" {
		var err error
		if requeue, err = s.openDurable(); err != nil {
			cancel()
			return nil, err
		}
	}
	// Recovered jobs ride ahead of new admissions and must all fit: the
	// queue is sized for them on top of the configured capacity.
	s.queue = make(chan *job, opts.Queue+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// resolve turns a parsed spec into a runnable task using the
// configured registries.
func (s *Server) resolve(spec *JobSpec) (task, *APIError) {
	if spec.Workload != "" {
		r, err := s.opts.Lookup(spec.Workload)
		if err != nil {
			return task{}, badRequest("unknown_workload", "%v", err)
		}
		return resolveWorkload(spec, r)
	}
	e, err := s.opts.FindExperiment(spec.Experiment)
	if err != nil {
		return task{}, badRequest("unknown_experiment", "%v", err)
	}
	return task{kind: "experiment", name: e.ID, exp: e, key: experimentKey(e.ID)}, nil
}

// Submit admits one job. The returned job may be newly queued
// (fresh=true), an existing in-flight job with the same content key
// (single-flight dedup), or a cache hit born in the done state.
// Rejections come back as *APIError with the HTTP status and
// Retry-After hint set.
func (s *Server) Submit(spec *JobSpec) (j *job, fresh bool, apiErr *APIError) {
	return s.submit(spec, nil)
}

// submit is Submit that, for fresh work and a non-nil accepted, also
// snapshots the job's status into *accepted as it is admitted: before
// the enqueue, so no worker can have moved it on yet.
func (s *Server) submit(spec *JobSpec, accepted *JobStatus) (j *job, fresh bool, apiErr *APIError) {
	t, apiErr := s.resolve(spec)
	if apiErr != nil {
		return nil, false, apiErr
	}
	now := s.opts.Now()

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.ctr.rejectedDraining.Add(1)
		return nil, false, &APIError{Status: http.StatusServiceUnavailable, Code: "draining",
			Msg: "server is draining; not accepting jobs"}
	}

	// Single-flight: a live job with the same content key absorbs the
	// submission — the caller polls the original job's id. Dedup comes
	// before the rate limiter so converging clients are not penalised
	// for asking the same question.
	s.mu.Lock()
	if live := s.active[t.key]; live != nil {
		s.mu.Unlock()
		s.ctr.deduped.Add(1)
		return live, false, nil
	}
	s.mu.Unlock()

	ok, code, retry := s.limiter.admit(spec.Tenant, now)
	if !ok {
		if code == "rate_limited" {
			s.ctr.rejectedRate.Add(1)
		} else {
			s.ctr.rejectedQuota.Add(1)
		}
		return nil, false, &APIError{Status: http.StatusTooManyRequests, Code: code,
			Msg: fmt.Sprintf("tenant %q over its %s quota; retry after %s", spec.Tenant, code, retry)}
	}

	// Cache: a deterministic run's result is fully determined by its
	// key, so a hit is complete immediately — same bytes a worker would
	// have produced. The lookup is two-tier: in-memory LRU, then the
	// on-disk store (which survives restarts and LRU eviction).
	if body, hit := s.lookupResult(t.key); hit {
		s.limiter.done(spec.Tenant)
		s.ctr.cacheHits.Add(1)
		s.mu.Lock()
		s.seq++
		j := &job{
			id:        "j" + strconv.Itoa(s.seq),
			tenant:    spec.Tenant,
			task:      t,
			state:     StateDone,
			cached:    true,
			body:      body,
			submitted: now,
			started:   now,
			finished:  now,
		}
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.ctr.admitted.Add(1)
		s.ctr.completed.Add(1)
		// Journal the alias lazily: losing it merely forgets the job id,
		// never the result (that is already in the store).
		s.journalLazy(durable.Record{Op: durable.OpDone, Job: j.id,
			Tenant: j.tenant, Key: t.key, Spec: marshalSpec(spec)})
		return j, false, nil
	}
	s.ctr.cacheMisses.Add(1)

	// Register job and single-flight slot atomically: a concurrent
	// submission with the same key may have claimed the slot since the
	// fast-path check above, in which case this admission folds into it.
	s.mu.Lock()
	if live := s.active[t.key]; live != nil {
		s.mu.Unlock()
		s.limiter.done(spec.Tenant)
		s.ctr.deduped.Add(1)
		return live, false, nil
	}
	s.seq++
	j = &job{
		id:        "j" + strconv.Itoa(s.seq),
		tenant:    spec.Tenant,
		task:      t,
		charged:   true,
		spec:      marshalSpec(spec),
		state:     StateQueued,
		submitted: now,
	}
	s.jobs[j.id] = j
	s.active[t.key] = j
	if accepted != nil {
		*accepted = s.statusLocked(j)
	}
	s.mu.Unlock()
	// Journal-then-ack: the accepted record is fsync'd before the job is
	// enqueued (and so before the caller learns it exists) — an
	// acknowledged job survives SIGKILL, and no later lifecycle record
	// can precede its accepted record in the log. Disk trouble degrades
	// to memory-only instead of rejecting the job.
	s.journalSync(durable.Record{Op: durable.OpAccepted, Job: j.id,
		Tenant: j.tenant, Key: t.key, Spec: j.spec})
	select {
	case s.queue <- j:
		s.ctr.admitted.Add(1)
		return j, true, nil
	default:
		// Queue full: roll the admission back completely so the rejected
		// submission leaves no residue. The journaled accepted record is
		// retired with a canceled mark; if a crash beats that append, the
		// replayed re-run is merely harmless extra work — the caller was
		// told "rejected" and never got this job id.
		s.mu.Lock()
		delete(s.active, t.key)
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.journalLazy(durable.Record{Op: durable.OpCanceled, Job: j.id,
			Err: "rolled back: queue full"})
		s.limiter.done(spec.Tenant)
		s.ctr.rejectedQueueFull.Add(1)
		return nil, false, &APIError{Status: http.StatusTooManyRequests, Code: "queue_full",
			Msg: fmt.Sprintf("queue at capacity %d; retry after 1s", s.opts.Queue)}
	}
}

// Job returns the job with the given id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker drains the queue until it is closed, running one job at a
// time. Panics are absorbed per job inside runJob, so a poisoned spec
// can never take a worker down.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job, once, under the per-job deadline. A run is
// deterministic for its spec, so a run that failed once fails every
// time and is never retried.
func (s *Server) runJob(j *job) {
	now := s.opts.Now()
	s.mu.Lock()
	j.state = StateRunning
	j.started = now
	s.mu.Unlock()
	// A lost running mark is harmless — replay re-runs the job from its
	// accepted record either way — so it does not pay for an fsync.
	s.journalLazy(durable.Record{Op: durable.OpRunning, Job: j.id})

	ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.JobTimeout)
	defer cancel()
	body, err := s.execute(ctx, j)
	s.finish(j, body, err, ctx)
}

// execute runs the job's task once. A panic in the runner is converted
// to a *PanicError carrying the stack; nothing escapes to the worker.
func (s *Server) execute(ctx context.Context, j *job) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panics.Add(1)
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	switch j.task.kind {
	case "workload":
		cfg := j.task.cfg
		cfg.Ctx = ctx
		if cfg.KernelShards > 1 {
			got := s.acquireShards(cfg.KernelShards)
			defer s.releaseShards(got)
			if got < cfg.KernelShards {
				s.ctr.shardDegraded.Add(1)
			}
			cfg.KernelShards = got
		}
		rep, err := j.task.runner.Run(cfg)
		if err != nil {
			return nil, err
		}
		s.ctr.simEvents.Add(rep.Kernel.Events)
		s.ctr.simWindows.Add(rep.Kernel.Windows)
		s.ctr.simCrossShard.Add(rep.Kernel.CrossShard)
		if mem := rep.Mem; mem != nil {
			s.ctr.memRowsMaterialized.Add(mem.RowsMaterialized)
			s.ctr.memCowCopies.Add(mem.CowCopies)
			s.ctr.memResidentBytes.Add(mem.MemResidentBytes)
			s.ctr.diskRowsCopied.Add(mem.DiskRowsCopied)
			s.ctr.diskRowsShared.Add(mem.DiskRowsShared)
		}
		return encodeBody(rep)
	case "experiment":
		r, err := j.task.exp.Run(ctx)
		if err != nil {
			return nil, err
		}
		return encodeBody(experimentBody{
			ID: r.ID, Title: r.Title, Metrics: r.Metrics, Notes: r.Notes, Output: r.String(),
		})
	}
	return nil, fmt.Errorf("serve: unknown task kind %q", j.task.kind)
}

// experimentBody mirrors the per-experiment JSON shape tsim emits with
// -experiment ... -json, so service results line up with CLI results
// field for field.
type experimentBody struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes,omitempty"`
	Output  string             `json:"output"`
}

// encodeBody renders a result exactly as `tsim -json` does — same
// encoder, same indentation, same trailing newline — so cached service
// bodies are byte-comparable against CLI output.
func encodeBody(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// finish records a job's terminal state and releases its admission
// residue: the single-flight slot and the tenant's in-flight slot.
// For a completed job the result is made durable — store write, then
// fsync'd journal record — *before* the done state becomes visible, so
// a crash can only ever leave the job looking interrupted (and thus
// re-run to the same bytes), never done-but-lost.
func (s *Server) finish(j *job, body []byte, err error, ctx context.Context) {
	var state, errMsg, stack string
	switch {
	case err == nil:
		state = StateDone
	case s.baseCtx.Err() != nil && errors.Is(err, context.Canceled):
		state, errMsg = StateCanceled, "canceled by server drain"
	case ctx.Err() != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		state, errMsg = StateTimeout, fmt.Sprintf("deadline %s exceeded", s.opts.JobTimeout)
	default:
		state, errMsg = StateFailed, err.Error()
		var pe *PanicError
		if errors.As(err, &pe) {
			stack = pe.Stack
		}
	}
	switch state {
	case StateDone:
		s.storePut(j.task.key, body)
		s.journalSync(durable.Record{Op: durable.OpDone, Job: j.id, Key: j.task.key})
	case StateFailed:
		s.journalLazy(durable.Record{Op: durable.OpFailed, Job: j.id, Err: errMsg})
	case StateTimeout:
		s.journalLazy(durable.Record{Op: durable.OpTimeout, Job: j.id, Err: errMsg})
	case StateCanceled:
		// A drain-canceled job is terminal for *this* process's clients,
		// but after a kill -9 the same shape replays as interrupted and
		// re-runs — both are correct; the record just keeps a graceful
		// restart from re-running work nobody is waiting for.
		s.journalLazy(durable.Record{Op: durable.OpCanceled, Job: j.id, Err: errMsg})
	}

	now := s.opts.Now()
	s.mu.Lock()
	j.finished = now
	j.state = state
	j.errMsg = errMsg
	j.stack = stack
	if state == StateDone {
		j.body = body
	}
	if s.active[j.task.key] == j {
		delete(s.active, j.task.key)
	}
	s.mu.Unlock()

	switch state {
	case StateDone:
		s.cache.put(j.task.key, body)
		s.ctr.completed.Add(1)
	case StateTimeout:
		s.ctr.timeouts.Add(1)
	case StateCanceled:
		s.ctr.canceled.Add(1)
	default:
		s.ctr.failed.Add(1)
	}
	if j.charged {
		s.limiter.done(j.tenant)
	}
	if j.recovered && s.dur != nil {
		s.noteRecovered()
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Drain gracefully shuts the service down: stop admitting, let the
// workers finish everything already queued or running, and return once
// the pool is idle. If the deadline passes first, the base context is
// canceled — in-flight kernels abort at their next event boundary and
// those jobs finish canceled — and Drain still waits for the pool to
// unwind before returning the deadline error. Drain is idempotent.
func (s *Server) Drain(deadline time.Duration) error {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		// A second Drain just waits for the first to finish the pool.
		s.workerWG.Wait()
		s.closeDurable()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.admitMu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.closeDurable()
		return nil
	case <-time.After(deadline):
		s.cancelBase()
		<-idle
		s.closeDurable()
		return fmt.Errorf("serve: drain deadline %s exceeded; in-flight jobs canceled", deadline)
	}
}
