package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest alternating base/head runs a gain may rest on.
const minPairs = 10

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Workload, Metric, Verdict string
	BaseMed, HeadMed          float64
	BaseIQR                   float64 // distance between the base runs' quartiles
	Wins, Pairs               int     // pairs the head won, pairs compared
}

// layerShift is the move of one layer's CPU share between base and head
// traced runs, in percentage points.
type layerShift struct {
	Workload, Metric string
	Base, Head       float64
}

// compareResults applies the benchmark's rule to base and head results.
// Run i of each side forms pair i, so the two sides must have been run
// alternately. A metric is worse when the head median is worse than the
// base median by more than the metric's bound; improved when the head
// wins at least nine tenths of at least ten pairs and the medians differ
// by more than the base runs' interquartile range; unresolved when the
// base runs spread wider than the bound and the head does not beat every
// base run; unchanged otherwise. Traced runs give each workload's layer
// CPU shares, sorted by how far they rose.
func compareResults(base, head []*result) ([]verdict, []layerShift) {
	var vs []verdict
	var ls []layerShift
	for _, w := range workloadDefs {
		b, h := pick(base, w.Name, false), pick(head, w.Name, false)
		if len(b) > 0 && len(h) > 0 {
			for _, m := range endToEnd {
				vs = append(vs, judge(w.Name, m, values(b, m.Name), values(h, m.Name)))
			}
		}
		bt, ht := pick(base, w.Name, true), pick(head, w.Name, true)
		if len(bt) == 0 || len(ht) == 0 {
			continue
		}
		var shifts []layerShift
		for _, l := range cpuLayers {
			name := l + ".cpu_pct"
			shifts = append(shifts, layerShift{w.Name, name, median(values(bt, name)), median(values(ht, name))})
		}
		sort.SliceStable(shifts, func(i, j int) bool {
			return shifts[i].Head-shifts[i].Base > shifts[j].Head-shifts[j].Base
		})
		ls = append(ls, shifts...)
	}
	return vs, ls
}

func judge(workload string, m metricDef, b, h []float64) verdict {
	v := verdict{Workload: workload, Metric: m.Name, BaseMed: median(b), HeadMed: median(h), Pairs: min(len(b), len(h))}
	better := func(x, y float64) bool { // x better than y
		if m.higherIsBetter() {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.Pairs; i++ {
		if better(h[i], b[i]) {
			v.Wins++
		}
	}
	q1, q3 := quartiles(b)
	v.BaseIQR = q3 - q1
	regress := v.HeadMed - v.BaseMed
	if m.higherIsBetter() {
		regress = -regress
	}
	allBetter := len(h) > 0 && len(b) > 0
	for _, x := range h {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case v.BaseMed != 0 && regress/math.Abs(v.BaseMed) > m.Bound:
		v.Verdict = worse
	case v.Pairs >= minPairs && 10*v.Wins >= 9*v.Pairs && math.Abs(v.HeadMed-v.BaseMed) > v.BaseIQR:
		v.Verdict = improved
	case v.BaseMed != 0 && v.BaseIQR/math.Abs(v.BaseMed) > m.Bound && !allBetter:
		v.Verdict = unresolved
	default:
		v.Verdict = unchanged
	}
	return v
}

// pick returns the results of one workload and pass, in file order.
func pick(rs []*result, workload string, trace bool) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func runCompare(basePath, headPath string, stdout, stderr io.Writer) int {
	var sides [2][]*result
	for i, p := range []string{basePath, headPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(stderr, "tsbench:", err)
			return 2
		}
		if sides[i] = parseResults(b); len(sides[i]) == 0 {
			fmt.Fprintf(stderr, "tsbench: %s holds no benchmark results\n", p)
			return 2
		}
	}
	vs, ls := compareResults(sides[0], sides[1])
	if err := printComparison(stdout, vs, ls); err != nil {
		fmt.Fprintln(stderr, "tsbench:", err)
		return 2
	}
	for _, v := range vs {
		if v.Verdict == worse {
			return 1
		}
	}
	return 0
}

// printComparison prints one row per workload and metric, then per
// workload the three layers whose CPU share rose most.
func printComparison(w io.Writer, vs []verdict, ls []layerShift) error {
	fmt.Fprintf(w, "%-15s %-14s %12s %12s %8s %10s %7s  %s\n",
		"workload", "metric", "base_median", "head_median", "change", "base_iqr", "wins", "verdict")
	counts := map[string]int{}
	for _, v := range vs {
		change := 0.0
		if v.BaseMed != 0 {
			change = 100 * (v.HeadMed - v.BaseMed) / math.Abs(v.BaseMed)
		}
		fmt.Fprintf(w, "%-15s %-14s %12.6g %12.6g %+7.1f%% %10.4g %3d/%-3d  %s\n",
			v.Workload, v.Metric, v.BaseMed, v.HeadMed, change, v.BaseIQR, v.Wins, v.Pairs, v.Verdict)
		counts[v.Verdict]++
	}
	shown := map[string]int{}
	for _, l := range ls {
		if shown[l.Workload] == 3 {
			continue
		}
		shown[l.Workload]++
		fmt.Fprintf(w, "%-15s layer %-22s %6.1f%% -> %6.1f%% (%+.1f pp)\n",
			l.Workload, l.Metric, l.Base, l.Head, l.Head-l.Base)
	}
	_, err := fmt.Fprintf(w, "%d improved, %d unchanged, %d worse, %d unresolved\n",
		counts[improved], counts[unchanged], counts[worse], counts[unresolved])
	return err
}
