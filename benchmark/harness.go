package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench is one workload as the harness drives it: repeated set-ups,
// one warm-up sample, then samples until the run's time is spent.
type bench interface {
	// setup performs the workload's set-up once and returns its span.
	setup(tr *tracer) (time.Duration, error)
	// sample runs one sample, under the CPU profiler when traced. tr is
	// nil unless the sample is traced; parent is the span its own spans
	// hang under.
	sample(tr *tracer, parent int, traced bool) (sample, error)
	// layers returns the workload's own per-layer metrics over every
	// sample so far; op is the median untraced operation latency.
	layers(op time.Duration) map[string]float64
	close() error
}

// sample is what one sample measured. The sim workloads run each sample
// in a child process, which sends it back as JSON.
type sample struct {
	Wall   time.Duration   // for a sim operation, its child's start to exit
	CPU    time.Duration   // process user+sys time over the sample
	Ops    int             // operations completed
	Failed int             // operations that failed or failed a check
	Notes  []string        // why they failed
	Lat    []time.Duration // latency of each primary operation
	Traced bool
	RT     rtDelta
	Probe  time.Duration    // hostProbe time just before the sample (probe.go)
	RSSMB  float64          // peak RSS of the process the sample stands for
	Leaked int              // goroutines the sample left running
	CPUNs  map[string]int64 // traced: CPU time by layer
	PeakG  int              // traced: peak goroutine count
}

// runConfig is one invocation of the measuring process.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // trace output dir ("" = a new temp dir)
	tiny     bool   // tests: smallest inputs, minimal set-up repeats
}

// Set-up is timed in samples of back-to-back set-ups lasting at least
// setupChunk, so a sub-millisecond set-up averages over the GC cycles
// that land in some of them and not others. Each sample starts from a
// collected heap and is scaled by a hostProbe timed just before it.
// There are at least minSetups samples, and more until setupBudget of
// wall time has passed (at most maxSetups); the median per-set-up time
// is reported.
const (
	setupChunk  = 20 * time.Millisecond
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// newBench builds the named workload's bench.
// On error the bench is unusable (a typed nil).
func newBench(rc runConfig) (bench, error) {
	if rc.workload == "tsimd-durable" || rc.workload == "tsimd-hit" {
		return newTsimd(rc)
	}
	return newSimBench(rc)
}

// measure runs one workload and returns its result. The run's seconds
// count from here: set-up, warm-up and samples all fit in them.
func measure(rc runConfig) (*result, error) {
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	b, err := newBench(rc)
	if err != nil {
		return nil, err
	}
	res, err := drive(b, rc, deadline)
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return res, err
}

func drive(b bench, rc runConfig, deadline time.Time) (*result, error) {
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	setups, err := timeSetups(b, rc, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm, err := b.sample(nil, 0, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	samples, err := collect(b, rc, tr, deadline)
	if err != nil {
		return nil, err
	}

	// The warm-up's operations count as attempted (and its failures as
	// failed) but its timings are dropped.
	res := newResult(rc)
	for _, s := range append([]sample{warm}, samples...) {
		res.Attempted += s.Ops
		res.Failed += s.Failed
		res.Notes = append(res.Notes, s.Notes...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(res.Notes) > 8 {
		res.Notes = append(res.Notes[:8], fmt.Sprintf("... and %d more", len(res.Notes)-8))
	}
	var untraced, traced []sample
	for _, s := range samples {
		if s.Traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}

	// Every time is scaled to the reference host speed by the probe
	// timed just before its sample (probe.go).
	var factors, perOpCPU, rates, rss []float64
	var ops, leaked int
	for _, s := range untraced {
		f := hostFactor(s.Probe)
		factors = append(factors, f)
		if s.Ops > 0 {
			perOpCPU = append(perOpCPU, f*float64(s.CPU)/float64(time.Millisecond)/float64(s.Ops))
			rates = append(rates, float64(s.Ops)/(s.Wall.Seconds()*f))
			rss = append(rss, s.RSSMB)
		}
		ops += s.Ops
		leaked += s.Leaked
	}
	lat, raw := latencies(untraced, true), latencies(untraced, false)
	res.set("setup_s", median(setups), setups)
	res.set("op_ms", median(lat), lat)
	res.set("ops_per_s", median(rates), rates)
	res.set("cpu_ms_per_op", median(perOpCPU), perOpCPU)
	res.set("max_rss_mb", median(rss), rss)

	opDur := time.Duration(median(lat) * float64(time.Millisecond))
	for k, v := range b.layers(opDur) {
		res.set(k, v, nil)
	}
	q, v := tail(lat)
	res.set("harness.op_tail_q", q, nil)
	res.set("harness.op_tail_ms", v, nil)
	res.set("harness.op_samples", float64(len(lat)), nil)
	res.set("harness.host_factor", median(factors), factors)
	res.set("harness.op_raw_ms", median(raw), raw)
	if ops > 0 {
		res.set("runtime.goroutines_leaked_per_op", float64(leaked)/float64(ops), nil)
	}
	res.setRuntime(samples)

	if rc.trace {
		if m := median(lat); m > 0 {
			res.set("harness.trace_overhead", median(latencies(traced, true))/m-1, nil)
		}
		cpuNs := map[string]int64{}
		peakG := 0
		for _, s := range traced {
			for k, v := range s.CPUNs {
				cpuNs[k] += v
			}
			peakG = max(peakG, s.PeakG)
		}
		shares := cpuShares(cpuNs)
		for _, l := range cpuLayers {
			res.set(l+".cpu_pct", shares[l], nil)
		}
		res.set("runtime.goroutines_peak", float64(peakG), nil)
		fsync, put, err := probeDurable(tr)
		if err != nil {
			return nil, fmt.Errorf("durable probe: %w", err)
		}
		res.set("durable.fsync_p50_us", fsync, nil)
		res.set("durable.store_put_p50_us", put, nil)
		if err := writeTraceOut(rc, res, tr, cpuNs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeSetups times the workload's set-up in samples (see setupChunk)
// and returns the per-set-up time of each sample, in seconds.
func timeSetups(b bench, rc runConfig, tr *tracer) ([]float64, error) {
	var setups []float64
	start := time.Now()
	budget := setupBudget
	if rc.tiny {
		budget = 0
	}
	for len(setups) < maxSetups && (len(setups) < minSetups || time.Since(start) < budget) {
		// Each sample starts from a collected heap, so the GC work inside
		// it does not depend on what ran before.
		runtime.GC()
		factor := hostFactor(hostProbe())
		var chunk time.Duration
		n := 0
		for ; n == 0 || chunk < setupChunk; n++ {
			d, err := b.setup(tr)
			if err != nil {
				return nil, err
			}
			chunk += d
		}
		setups = append(setups, factor*chunk.Seconds()/float64(n))
	}
	return setups, nil
}

// collect runs samples until one more of average length would pass the
// deadline; it takes at least one (in the traced pass, one of each
// kind). In the traced pass untraced and traced samples alternate, so
// the profiler's overhead is measured against neighbours in time.
func collect(b bench, rc runConfig, tr *tracer, deadline time.Time) ([]sample, error) {
	start := time.Now()
	var samples []sample
	for i := 0; ; i++ {
		traced := rc.trace && i%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		id := t.begin("sample", 0, 0)
		s, err := b.sample(t, id, traced)
		t.end(id)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		avg := time.Since(start) / time.Duration(i+1)
		if (!rc.trace || i >= 1) && time.Now().Add(avg).After(deadline) {
			return samples, nil
		}
	}
}

// cpuShares turns per-layer CPU time into percentages of the total.
func cpuShares(ns map[string]int64) map[string]float64 {
	var total int64
	for _, v := range ns {
		total += v
	}
	out := map[string]float64{}
	for k, v := range ns {
		if total > 0 {
			out[k] = 100 * float64(v) / float64(total)
		}
	}
	return out
}

// latencies joins the samples' operation latencies, in ms, each scaled
// by its sample's host factor when scaled is set.
func latencies(ss []sample, scaled bool) []float64 {
	var out []float64
	for _, s := range ss {
		f := 1.0
		if scaled {
			f = hostFactor(s.Probe)
		}
		for _, l := range msOf(s.Lat) {
			out = append(out, l*f)
		}
	}
	return out
}

// measureIn runs fn with wall time, CPU time, runtime counters and the
// goroutine count taken around it. A traced call also runs under the
// CPU profiler, folded by layer, with the goroutine count polled every
// 10 ms. fn records its operations in the sample it is handed.
func measureIn(traced bool, fn func(s *sample) error) (sample, error) {
	var s sample
	var buf bytes.Buffer
	var stop chan struct{}
	var polled sync.WaitGroup
	if traced {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return s, fmt.Errorf("cpu profile: %w", err)
		}
		stop = make(chan struct{})
		polled.Add(1)
		go func() {
			defer polled.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			g := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
			for {
				metrics.Read(g)
				s.PeakG = max(s.PeakG, int(g[0].Value.Uint64()))
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	g0 := runtime.NumGoroutine()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn(&s)
	s.Wall = time.Since(t0)
	s.CPU = cpuTime() - cpu0
	s.RT = readRuntime().sub(rt0)
	s.Leaked = runtime.NumGoroutine() - g0
	s.Traced = traced
	if traced {
		close(stop)
		polled.Wait()
		pprof.StopCPUProfile()
		folded, ferr := foldProfile(buf.Bytes())
		if err == nil {
			err = ferr
		}
		s.CPUNs = folded
	}
	return s, err
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtDelta is the change in the Go runtime's counters over a sample.
type rtDelta struct {
	GCCycles   float64
	GCPauseSec float64 // wall time the world was stopped for GC
	AllocBytes float64
	AllocObjs  float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtDelta {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	// The pause class counts CPU-seconds across every P; divide by
	// GOMAXPROCS to get wall time stopped.
	return rtDelta{
		GCCycles:   num(ms[0].Value),
		GCPauseSec: num(ms[1].Value) / float64(runtime.GOMAXPROCS(0)),
		AllocBytes: num(ms[2].Value),
		AllocObjs:  num(ms[3].Value),
	}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.GCCycles - b.GCCycles, a.GCPauseSec - b.GCPauseSec, a.AllocBytes - b.AllocBytes, a.AllocObjs - b.AllocObjs}
}

// writeTraceOut writes the traced pass's Chrome trace and per-layer
// table under rc.out (a new temp dir when unset).
func writeTraceOut(rc runConfig, res *result, tr *tracer, cpuNs map[string]int64) error {
	dir := rc.out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "tsbench-trace-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(filepath.Join(dir, rc.workload+".trace.json")); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed %d: CPU by layer over the traced samples\n", rc.workload, rc.seed)
	fmt.Fprintf(&b, "%-14s %10s %7s\n", "layer", "cpu_s", "share")
	shares := cpuShares(cpuNs)
	for _, l := range cpuLayers {
		fmt.Fprintf(&b, "%-14s %10.3f %6.1f%%\n", l, float64(cpuNs[l])/1e9, shares[l])
	}
	fmt.Fprintf(&b, "\n# self time of the harness's spans, s\n")
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-14s %10.3f\n", n, self[n].Seconds())
	}
	fmt.Fprintf(&b, "\n# per-layer metrics\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "%-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "tsbench: trace and layer table in %s\n", dir)
	return os.WriteFile(filepath.Join(dir, rc.workload+".layers.txt"), []byte(b.String()), 0o644)
}
