package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// JobStatus is the wire shape of GET /jobs/{id} and the envelope
// returned by POST /jobs.
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Tenant    string `json:"tenant"`
	Kind      string `json:"kind"`
	Name      string `json:"name"`
	Key       string `json:"key"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error,omitempty"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

// status snapshots a job under the server lock.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

// statusLocked is status for a caller holding s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:     j.id,
		State:  j.state,
		Tenant: j.tenant,
		Kind:   j.task.kind,
		Name:   j.task.name,
		Key:    keyDigest(j.task.key),
		Cached: j.cached,
		Error:  j.errMsg,
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.Submitted, st.Started, st.Finished = stamp(j.submitted), stamp(j.started), stamp(j.finished)
	if j.state == StateDone {
		st.ResultURL = "/jobs/" + j.id + "/result"
	}
	return st
}

// Handler returns the service's HTTP mux.
//
//	POST /jobs             submit a JobSpec; 202 (queued), 200 (cache/dedup), 4xx typed errors
//	GET  /jobs/{id}        job lifecycle status
//	GET  /jobs/{id}/result raw result body of a done job (byte-identical to tsim -json)
//	GET  /healthz          liveness: always 200 while the process serves
//	GET  /readyz           readiness: 503 while recovering the journal or once draining
//	GET  /stats            admission, execution, cache, and durability counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if !s.Ready() {
			// Still re-running jobs recovered from the journal: the jobs
			// API answers (recovered ids resolve) but load balancers should
			// hold new traffic until the backlog clears.
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// writeJSON emits v with the service's canonical encoder settings.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAPIError emits a typed rejection. 429s and the drain 503 carry
// a Retry-After hint.
func writeAPIError(w http.ResponseWriter, e *APIError) {
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.Status, map[string]*APIError{"error": e})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeAPIError(w, &APIError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
			Msg: "body exceeds " + strconv.Itoa(MaxBodyBytes) + " bytes"})
		return
	}
	spec, apiErr := ParseJobSpec(body)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	var st JobStatus
	j, fresh, apiErr := s.submit(spec, &st)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	// Fresh queued work is a 202 with its status as accepted — an idle
	// worker may already be running it; a job completed at admission
	// (cache hit) or absorbed into a live one (dedup) is a 200.
	code := http.StatusAccepted
	if !fresh {
		code = http.StatusOK
		st = s.status(j)
	}
	writeJSON(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeAPIError(w, &APIError{Status: http.StatusNotFound, Code: "unknown_job",
			Msg: "no job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeAPIError(w, &APIError{Status: http.StatusNotFound, Code: "unknown_job",
			Msg: "no job " + r.PathValue("id")})
		return
	}
	s.mu.Lock()
	state, body, key := j.state, j.body, j.task.key
	s.mu.Unlock()
	if state != StateDone {
		writeAPIError(w, &APIError{Status: http.StatusConflict, Code: "not_done",
			Msg: "job " + j.id + " is " + state})
		return
	}
	if body == nil {
		// A job recovered as done carries no body in memory — the result
		// lives in the durable store (and warms the LRU on first read).
		var ok bool
		if body, ok = s.lookupResult(key); !ok {
			writeAPIError(w, &APIError{Status: http.StatusGone, Code: "result_lost",
				Msg: "job " + j.id + " completed but its stored result is gone; resubmit to recompute"})
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// Stats is the wire shape of GET /stats.
type Stats struct {
	Admitted          int64 `json:"admitted"`
	Deduped           int64 `json:"deduped"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEntries      int   `json:"cache_entries"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedRate      int64 `json:"rejected_rate"`
	RejectedQuota     int64 `json:"rejected_quota"`
	RejectedDraining  int64 `json:"rejected_draining"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	Timeouts          int64 `json:"timeouts"`
	Canceled          int64 `json:"canceled"`
	Panics            int64 `json:"panics"`
	QueueDepth        int   `json:"queue_depth"`
	Draining          bool  `json:"draining"`

	// Parallel-kernel hosting: the pool-wide shard-worker budget, how
	// much of it running jobs hold right now, and how many jobs were
	// granted fewer shard workers than they asked for (degraded jobs
	// still produce byte-identical results — shards are physical only).
	ShardBudget   int   `json:"shard_budget"`
	ShardInUse    int   `json:"shard_in_use"`
	ShardDegraded int64 `json:"shard_degraded"`

	// Aggregate kernel work executed by completed workload jobs: total
	// simulation events, conservative windows, and cross-shard staged
	// events (the latter two nonzero only for sharded workloads).
	SimEvents     int64 `json:"sim_events"`
	SimWindows    int64 `json:"sim_windows"`
	SimCrossShard int64 `json:"sim_cross_shard"`

	// Host-footprint totals across completed machine workloads: how many
	// node-memory rows were materialized (of the machines' configured
	// rows), how many writes copy-on-wrote the shared zero row, the
	// resident bytes those rows cost the host, and how the system disks'
	// checkpoint segments split between fresh copies and dedup hits.
	MemRowsMaterialized int64 `json:"mem_rows_materialized"`
	MemCowCopies        int64 `json:"mem_cow_copies"`
	MemResidentBytes    int64 `json:"mem_resident_bytes"`
	DiskRowsCopied      int64 `json:"disk_rows_copied"`
	DiskRowsShared      int64 `json:"disk_rows_shared"`

	// Durability: present (meaningful) only when the server runs with a
	// data dir. Degraded means a disk failure flipped the service to
	// in-memory mode — it keeps serving, but accepted jobs and results no
	// longer survive a crash.
	Durable        bool   `json:"durable"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Recovering     bool   `json:"recovering,omitempty"`
	RecoveredJobs  int64  `json:"recovered_jobs,omitempty"`
	RecoveryNs     int64  `json:"recovery_ns,omitempty"`

	JournalSegments    int   `json:"journal_segments,omitempty"`
	JournalBytes       int64 `json:"journal_bytes,omitempty"`
	JournalAppends     int64 `json:"journal_appends,omitempty"`
	JournalCompactions int64 `json:"journal_compactions,omitempty"`
	LastFsyncNs        int64 `json:"last_fsync_ns,omitempty"`

	StoreHits        int64 `json:"store_hits,omitempty"`
	StoreMisses      int64 `json:"store_misses,omitempty"`
	StorePuts        int64 `json:"store_puts,omitempty"`
	StoreCorruptions int64 `json:"store_corruptions,omitempty"`
}

// Snapshot returns the current counters.
func (s *Server) Snapshot() Stats {
	s.shardMu.Lock()
	inUse := s.shardInUse
	s.shardMu.Unlock()
	st := Stats{
		ShardBudget:   s.opts.ShardBudget,
		ShardInUse:    inUse,
		ShardDegraded: s.ctr.shardDegraded.Load(),
		SimEvents:     s.ctr.simEvents.Load(),
		SimWindows:    s.ctr.simWindows.Load(),
		SimCrossShard: s.ctr.simCrossShard.Load(),

		MemRowsMaterialized: s.ctr.memRowsMaterialized.Load(),
		MemCowCopies:        s.ctr.memCowCopies.Load(),
		MemResidentBytes:    s.ctr.memResidentBytes.Load(),
		DiskRowsCopied:      s.ctr.diskRowsCopied.Load(),
		DiskRowsShared:      s.ctr.diskRowsShared.Load(),
		Admitted:            s.ctr.admitted.Load(),
		Deduped:             s.ctr.deduped.Load(),
		CacheHits:           s.ctr.cacheHits.Load(),
		CacheMisses:         s.ctr.cacheMisses.Load(),
		CacheEntries:        s.cache.len(),
		RejectedQueueFull:   s.ctr.rejectedQueueFull.Load(),
		RejectedRate:        s.ctr.rejectedRate.Load(),
		RejectedQuota:       s.ctr.rejectedQuota.Load(),
		RejectedDraining:    s.ctr.rejectedDraining.Load(),
		Completed:           s.ctr.completed.Load(),
		Failed:              s.ctr.failed.Load(),
		Timeouts:            s.ctr.timeouts.Load(),
		Canceled:            s.ctr.canceled.Load(),
		Panics:              s.ctr.panics.Load(),
		QueueDepth:          len(s.queue),
		Draining:            s.Draining(),
	}
	if d := s.dur; d != nil {
		st.Durable = true
		st.Degraded = d.degraded.Load()
		if r, _ := d.reason.Load().(string); r != "" {
			st.DegradedReason = r
		}
		st.Recovering = !d.ready.Load()
		st.RecoveredJobs = d.recoveredJobs
		st.RecoveryNs = d.recoveryNs.Load()
		js := d.journal.Stats()
		st.JournalSegments = js.Segments
		st.JournalBytes = js.Bytes
		st.JournalAppends = js.Appends
		st.JournalCompactions = js.Compactions
		st.LastFsyncNs = int64(js.LastFsync)
		ss := d.store.Stats()
		st.StoreHits = ss.Hits
		st.StoreMisses = ss.Misses
		st.StorePuts = ss.Puts
		st.StoreCorruptions = ss.Corruptions
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
