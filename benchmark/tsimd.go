package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tseries/internal/durable"
	"tseries/internal/serve"
	"tseries/internal/workloads"
)

// The tsimd workloads: an in-process job service with a data dir
// behind a loopback HTTP listener, driven by a closed loop of clients.
// In tsimd-durable each client alternates a fresh spec (a cache miss:
// fsync'd journal record, simulation run, store put) with a
// resubmission of the spec it just completed (a cache hit). In
// tsimd-hit each client only resubmits specs it completed earlier.
const (
	tsimdClients = 2
	tsimdWorkers = 2
	tsimdWindow  = time.Second // one sample
	pollEvery    = 200 * time.Microsecond
	// journalPairs is the fixed miss+hit count per client that builds
	// the journal every set-up replays. It is a count, not a duration,
	// so the replay's size does not depend on host speed.
	journalPairs = 200
	// directChecks is how many of the first miss bodies are compared
	// with a direct in-process run of the same spec.
	directChecks = 4
	// In tsimd-hit each client cycles through the last hitSet specs it
	// completed while the journal was built, in batches of hitBatch
	// back-to-back hits. A hit takes a fraction of a millisecond, so it
	// is timed per batch, above the scheduler's noise, and reported per
	// hit.
	hitSet   = 16
	hitBatch = 100
)

type tsimdBench struct {
	hitsOnly bool // tsimd-hit
	dir      string
	window   time.Duration
	srv      *serve.Server
	ts       *httptest.Server
	cls      []*tsimdClient

	carry sample           // checks made before the first sample, reported with it
	first workloads.Report // the first miss body, decoded: the per-job sim counts
	rss   float64          // resident MB after the fixed journal-building load

	// Per-layer accumulators over every sample.
	submit, queue, run, result, hit, miss []time.Duration
	polls                                 int
}

// tsimdClient is one closed-loop client with its own connection.
type tsimdClient struct {
	id       int
	seed     int64 // seed of the next fresh spec
	tp       *http.Transport
	hc       *http.Client
	prevSpec []byte
	prevBody []byte
	set      [][2][]byte // tsimd-hit: (spec, body) pairs to resubmit
	next     int         // tsimd-hit: index of the next pair in set
}

// clientLog is what one client measured over a window.
type clientLog struct {
	ops, failed                     int
	notes                           []string
	miss                            []time.Duration // miss latencies
	batch                           []time.Duration // tsimd-hit: mean hit latency of each batch
	submit, queue, run, result, hit []time.Duration
	polls                           int
	bodies                          [][2][]byte // (spec, body) of each miss
}

func newTsimd(rc runConfig) (*tsimdBench, error) {
	dir, err := os.MkdirTemp("", "tsbench-tsimd-")
	if err != nil {
		return nil, err
	}
	b := &tsimdBench{hitsOnly: rc.workload == "tsimd-hit", dir: dir, window: tsimdWindow}
	pairs := journalPairs
	if rc.tiny {
		pairs, b.window = 4, 100*time.Millisecond
	}
	for c := 0; c < tsimdClients; c++ {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		b.cls = append(b.cls, &tsimdClient{
			id: c, tp: tp, hc: &http.Client{Transport: tp},
			// Disjoint seed ranges per client and per benchmark seed.
			seed: rc.seed*100_000_000 + int64(c)*10_000_000,
		})
	}
	if err := b.buildJournal(pairs); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *tsimdBench) options() serve.Options {
	return serve.Options{
		Workers: tsimdWorkers, Queue: 64, DataDir: b.dir,
		// Admission limits far above what two closed-loop clients can
		// reach, so nothing is rejected.
		Rate: 1e6, Burst: 1e6, MaxInFlight: 1 << 20,
	}
}

// buildJournal runs a fixed number of jobs against a fresh data dir,
// checks the first miss bodies against direct runs, and shuts the
// server down, leaving the journal and store every set-up replays.
func (b *tsimdBench) buildJournal(pairs int) error {
	if _, err := b.setup(nil); err != nil {
		return err
	}
	logs := b.drive(nil, 0, false, func(done int, _ time.Time) bool { return done < pairs })
	var bodies [][2][]byte
	for i, l := range logs {
		b.carry.Ops += l.ops
		b.carry.Failed += l.failed
		b.carry.Notes = append(b.carry.Notes, l.notes...)
		bodies = append(bodies, l.bodies...)
		b.cls[i].set = l.bodies[max(0, len(l.bodies)-hitSet):]
		if len(b.cls[i].set) == 0 {
			return fmt.Errorf("tsimd: client %d completed no miss while building the journal", i)
		}
	}
	if len(bodies) == 0 {
		return fmt.Errorf("tsimd: no miss completed while building the journal")
	}
	if err := json.Unmarshal(bodies[0][1], &b.first); err != nil {
		return fmt.Errorf("tsimd: decode result body: %w", err)
	}
	for _, sb := range bodies[:min(directChecks, len(bodies))] {
		b.carry.Ops++
		if note := checkDirect(sb[0], sb[1]); note != "" {
			b.carry.Failed++
			b.carry.Notes = append(b.carry.Notes, note)
		}
	}
	// The footprint after a fixed job count, with garbage collected: a
	// peak would depend on where GC cycles fall, and RSS later in the run
	// grows with the number of jobs served (runtime.goroutines_leaked_per_op).
	b.rss = residentMB()
	return b.stop()
}

// checkDirect compares a service result with a direct in-process run of
// the same spec, encoded the way `tsim -json` encodes it.
func checkDirect(spec, body []byte) string {
	var js serve.JobSpec
	if err := json.Unmarshal(spec, &js); err != nil {
		return err.Error()
	}
	seed, err := strconv.ParseInt(js.Flags["seed"], 10, 64)
	if err != nil {
		return err.Error()
	}
	r, err := workloads.Get(js.Workload)
	if err != nil {
		return err.Error()
	}
	cfg := workloads.DefaultConfig()
	cfg.Dim, cfg.N, cfg.Seed = 2, 32, seed
	rep, err := r.Run(cfg)
	if err != nil {
		return fmt.Sprintf("direct run of seed %d: %v", seed, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err.Error()
	}
	if !bytes.Equal(body, want.Bytes()) {
		return fmt.Sprintf("service result for seed %d differs from a direct run", seed)
	}
	return ""
}

// setup opens the server on the data dir, replaying its journal, and
// starts the listener; a server from an earlier set-up is shut down
// first.
func (b *tsimdBench) setup(tr *tracer) (time.Duration, error) {
	if err := b.stop(); err != nil {
		return 0, err
	}
	id := tr.begin("open", 0, 0)
	t0 := time.Now()
	srv, err := serve.Open(b.options())
	if err != nil {
		tr.end(id)
		return 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	d := time.Since(t0)
	tr.end(id)
	b.srv, b.ts = srv, ts
	if !srv.Ready() {
		return 0, fmt.Errorf("tsimd: server not ready after replaying the journal")
	}
	return d, nil
}

// stop shuts the current server down, if any.
func (b *tsimdBench) stop() error {
	if b.ts == nil {
		return nil
	}
	for _, c := range b.cls {
		c.tp.CloseIdleConnections()
	}
	b.ts.Close()
	err := b.srv.Drain(time.Minute)
	b.srv, b.ts = nil, nil
	return err
}

func (b *tsimdBench) close() error {
	err := b.stop()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// sample runs the clients for one window. The host probe runs just
// before it, after a collection, so that it does not also time the GC
// work the server left behind.
func (b *tsimdBench) sample(tr *tracer, parent int, traced bool) (sample, error) {
	runtime.GC()
	probe := hostProbe()
	s, err := measureIn(traced, func(s *sample) error {
		deadline := time.Now().Add(b.window)
		logs := b.drive(tr, parent, b.hitsOnly, func(_ int, now time.Time) bool { return now.Before(deadline) })
		for _, l := range logs {
			s.Ops += l.ops
			s.Failed += l.failed
			s.Notes = append(s.Notes, l.notes...)
			if b.hitsOnly {
				s.Lat = append(s.Lat, l.batch...)
			} else {
				s.Lat = append(s.Lat, l.miss...)
			}
			b.submit = append(b.submit, l.submit...)
			b.queue = append(b.queue, l.queue...)
			b.run = append(b.run, l.run...)
			b.result = append(b.result, l.result...)
			b.hit = append(b.hit, l.hit...)
			b.miss = append(b.miss, l.miss...)
			b.polls += l.polls
		}
		return nil
	})
	s.Probe, s.RSSMB = probe, b.rss
	s.Ops += b.carry.Ops
	s.Failed += b.carry.Failed
	s.Notes = append(s.Notes, b.carry.Notes...)
	b.carry = sample{}
	return s, err
}

// drive runs every client concurrently, each doing miss+hit pairs (or,
// with hits set, batches of hits) while more(steps done, now) holds,
// and returns their logs.
func (b *tsimdBench) drive(tr *tracer, parent int, hits bool, more func(int, time.Time) bool) []*clientLog {
	logs := make([]*clientLog, len(b.cls))
	var wg sync.WaitGroup
	for i, c := range b.cls {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(c *tsimdClient, l *clientLog) {
			defer wg.Done()
			for done := 0; more(done, time.Now()); done++ {
				if hits {
					c.hitBatch(b.ts.URL, tr, parent, l)
					continue
				}
				c.miss(b.ts.URL, tr, parent, l)
				if c.prevSpec != nil {
					c.hit(b.ts.URL, tr, parent, l, c.prevSpec, c.prevBody)
				}
			}
		}(c, logs[i])
	}
	wg.Wait()
	return logs
}

func (l *clientLog) fail(format string, args ...interface{}) {
	l.failed++
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// miss submits a fresh spec, polls it to completion and fetches the
// result. Its latency runs from the POST to the last result byte.
func (c *tsimdClient) miss(url string, tr *tracer, parent int, l *clientLog) {
	spec := []byte(fmt.Sprintf(`{"workload":"matmul","flags":{"dim":"2","n":"32","seed":"%d"}}`, c.seed))
	c.seed++
	l.ops++
	track := c.id + 1
	job := tr.begin("job", track, parent)
	defer tr.end(job)
	t0 := time.Now()
	sp := tr.begin("submit", track, job)
	st, code, err := c.post(url, spec)
	tr.end(sp)
	tSubmit := time.Since(t0)
	if err != nil || code != http.StatusAccepted {
		l.fail("miss submit: status %d: %v", code, err)
		return
	}
	sp = tr.begin("poll", track, job)
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(pollEvery)
		l.polls++
		if st, err = c.status(url, st.ID); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil || st.State != serve.StateDone {
		l.fail("miss job %s: state %q: %v", st.ID, st.State, err)
		return
	}
	t2 := time.Now()
	sp = tr.begin("result", track, job)
	body, err := c.get(url + "/jobs/" + st.ID + "/result")
	tr.end(sp)
	if err != nil {
		l.fail("miss result: %v", err)
		return
	}
	l.miss = append(l.miss, time.Since(t0))
	l.submit = append(l.submit, tSubmit)
	l.result = append(l.result, time.Since(t2))
	if sub, start, fin, ok := stamps(st); ok {
		l.queue = append(l.queue, start.Sub(sub))
		l.run = append(l.run, fin.Sub(start))
	}
	l.bodies = append(l.bodies, [2][]byte{spec, body})
	c.prevSpec, c.prevBody = spec, body
}

// hit resubmits a completed spec, which the service must answer from
// its cache with want, the bytes its miss returned.
func (c *tsimdClient) hit(url string, tr *tracer, parent int, l *clientLog, spec, want []byte) {
	l.ops++
	track := c.id + 1
	job := tr.begin("hit", track, parent)
	defer tr.end(job)
	t0 := time.Now()
	st, code, err := c.post(url, spec)
	if err != nil || code != http.StatusOK || st.State != serve.StateDone || !st.Cached {
		l.fail("hit submit: status %d state %q cached %v: %v", code, st.State, st.Cached, err)
		return
	}
	body, err := c.get(url + "/jobs/" + st.ID + "/result")
	if err != nil {
		l.fail("hit result: %v", err)
		return
	}
	l.hit = append(l.hit, time.Since(t0))
	if !bytes.Equal(body, want) {
		l.fail("hit body for job %s differs from its miss body", st.ID)
	}
}

// hitBatch makes hitBatch back-to-back hits on the client's set and
// records their mean latency. A batch with a failed hit is not timed.
// The batch is one span: a span per hit would swamp the trace.
func (c *tsimdClient) hitBatch(url string, tr *tracer, parent int, l *clientLog) {
	id := tr.begin("hits", c.id+1, parent)
	defer tr.end(id)
	failed := l.failed
	t0 := time.Now()
	for i := 0; i < hitBatch; i++ {
		sb := c.set[c.next%len(c.set)]
		c.next++
		c.hit(url, nil, 0, l, sb[0], sb[1])
	}
	if l.failed == failed {
		l.batch = append(l.batch, time.Since(t0)/hitBatch)
	}
}

func (c *tsimdClient) post(url string, spec []byte) (serve.JobStatus, int, error) {
	resp, err := c.hc.Post(url+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return serve.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	return st, resp.StatusCode, err
}

func (c *tsimdClient) status(url, id string) (serve.JobStatus, error) {
	b, err := c.get(url + "/jobs/" + id)
	var st serve.JobStatus
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

func (c *tsimdClient) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// stamps parses a finished job's lifecycle timestamps.
func stamps(st serve.JobStatus) (sub, start, fin time.Time, ok bool) {
	var errs [3]error
	sub, errs[0] = time.Parse(time.RFC3339Nano, st.Submitted)
	start, errs[1] = time.Parse(time.RFC3339Nano, st.Started)
	fin, errs[2] = time.Parse(time.RFC3339Nano, st.Finished)
	return sub, start, fin, errs[0] == nil && errs[1] == nil && errs[2] == nil
}

func (b *tsimdBench) layers(time.Duration) map[string]float64 {
	med := func(ds []time.Duration) float64 { return median(msOf(ds)) }
	missP50 := med(b.miss)
	pct := func(ds []time.Duration) float64 {
		if missP50 == 0 {
			return 0
		}
		return 100 * med(ds) / missP50
	}
	per := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	m := map[string]float64{
		"serve.submit_pct":     pct(b.submit),
		"serve.queue_wait_pct": pct(b.queue),
		"serve.run_pct":        pct(b.run),
		"serve.result_pct":     pct(b.result),
		"serve.hit_cost_pct":   pct(b.hit),
		"serve.poll_per_job":   per(float64(b.polls), float64(len(b.miss))),
	}
	if b.srv != nil {
		st := b.srv.Snapshot()
		jobs := float64(st.Admitted)
		m["serve.cache_hit_ratio"] = per(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
		m["serve.deduped"] = float64(st.Deduped)
		m["serve.rejected"] = float64(st.RejectedQueueFull + st.RejectedRate + st.RejectedQuota + st.RejectedDraining)
		m["durable.appends_per_job"] = per(float64(st.JournalAppends), jobs)
		m["durable.puts_per_job"] = per(float64(st.StorePuts), jobs)
		m["durable.journal_mb"] = float64(st.JournalBytes) / (1 << 20)
	}
	// Simulation counts of one miss job (every miss runs the same shape),
	// against the service's median run time.
	r := b.first
	runNs := med(b.run) * 1e6
	m["sim.events"] = float64(r.Kernel.Events)
	m["sim.parks"] = float64(r.Kernel.Parks)
	m["sim.unparks"] = float64(r.Kernel.Unparks)
	m["sim.procs_spawned"] = float64(r.Kernel.Spawned)
	m["sim.max_queue"] = float64(r.Kernel.MaxQueue)
	m["sim.elapsed_s"] = r.Elapsed.Seconds()
	m["sim.ns_per_event"] = per(runNs, float64(r.Kernel.Events))
	m["link.mb"] = float64(r.Bytes) / (1 << 20)
	m["machine.nodes"] = float64(r.Nodes)
	m["fpu.flops"] = float64(r.Flops)
	m["fpu.sim_mflops"] = per(float64(r.Flops)/1e6, r.Elapsed.Seconds())
	m["fpu.host_ns_per_flop"] = per(runNs, float64(r.Flops))
	return m
}

// probeDurable times 200 fsync'd journal appends and 200 store puts in
// a scratch dir beside tsimd's: the host's fsync cost, which every miss
// pays twice.
func probeDurable(tr *tracer) (appendUs, putUs float64, err error) {
	dir, err := os.MkdirTemp("", "tsbench-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	const n = 200
	j, _, err := durable.OpenJournal(filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		return 0, 0, err
	}
	id := tr.begin("probe.journal", 0, 0)
	var appends, puts []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		err = j.Append(durable.Record{Op: durable.OpAccepted, Job: "p" + strconv.Itoa(i), Key: "probe"})
		appends = append(appends, us(t0))
	}
	tr.end(id)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	st, err := durable.OpenStore(filepath.Join(dir, "store"), nil)
	if err != nil {
		return 0, 0, err
	}
	body := bytes.Repeat([]byte{'x'}, 4096)
	id = tr.begin("probe.store", 0, 0)
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		err = st.Put("probe-"+strconv.Itoa(i), body)
		puts = append(puts, us(t0))
	}
	tr.end(id)
	return median(appends), median(puts), err
}
