package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// stat is one metric in a result's detail: its value, and the sample
// count and quartiles it came from (n = 0 for derived values).
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// result is one workload's measurement. Its JSON form is the detail
// line the benchmark prints (and -compare reads); final() is the last
// line.
type result struct {
	Workload   string          `json:"workload"`
	Seed       int64           `json:"seed"`
	Trace      bool            `json:"trace"`
	Seconds    float64         `json:"seconds"`
	Provenance provenance      `json:"provenance"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Notes      []string        `json:"notes,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
}

func newResult(rc runConfig) *result {
	return &result{
		Workload: rc.workload, Seed: rc.seed, Trace: rc.trace, Seconds: rc.seconds,
		Provenance: collectProvenance(), Metrics: map[string]stat{},
	}
}

// set records metric name; xs, when given, are the samples the value
// summarises. Every name must be in the catalogue.
func (r *result) set(name string, v float64, xs []float64) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	s := stat{Value: v, Unit: def.Unit, N: len(xs)}
	if len(xs) > 0 {
		s.Q1, s.Q3 = quartiles(xs)
	}
	r.Metrics[name] = s
}

// setRuntime records the runtime counters per operation, as medians
// over the samples.
func (r *result) setRuntime(ss []sample) {
	var cyc, pause, alloc, objs []float64
	for _, s := range ss {
		if s.Ops == 0 {
			continue
		}
		n := float64(s.Ops)
		cyc = append(cyc, s.RT.GCCycles/n)
		pause = append(pause, 1e3*s.RT.GCPauseSec/n)
		alloc = append(alloc, s.RT.AllocBytes/(1<<20)/n)
		objs = append(objs, s.RT.AllocObjs/n)
	}
	r.set("gc.cycles_per_op", median(cyc), cyc)
	r.set("gc.pause_ms_per_op", median(pause), pause)
	r.set("heap.alloc_mb_per_op", median(alloc), alloc)
	r.set("heap.objects_per_op", median(objs), objs)
}

// reported is the metric list a run prints on its last line: every
// end-to-end metric, or in the traced pass every per-layer one.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// finalLine is the last output line: exactly correct, attempted, failed
// and the reported metrics.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is r's last output line (a metric a workload lacks reads 0).
func (r *result) final() finalLine {
	f := finalLine{r.Correct, r.Attempted, r.Failed, map[string]metricValue{}}
	for _, m := range reported(r.Trace) {
		f.Metrics[m.Name] = metricValue{r.Metrics[m.Name].Value, m.Unit}
	}
	return f
}

// print writes the human summary, the detail line and the final line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "%s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  failure: %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-8s", n, s.Value, s.Unit)
		if s.N > 0 {
			fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, v := range []interface{}{r, r.final()} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
