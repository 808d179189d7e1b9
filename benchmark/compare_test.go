package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds n alternating-run results per workload with a small
// deterministic jitter, scaling one workload's op_ms and setting its
// module CPU share as given.
func synthetic(n int, slowWorkload string, opScale, modulePct float64) []*result {
	var rs []*result
	for i := 0; i < n; i++ {
		jitter := 1 + 0.004*float64(i%5-2)
		for _, w := range workloadDefs {
			r := &result{Workload: w.Name, Correct: true, Attempted: 5, Metrics: map[string]stat{}}
			for _, m := range endToEnd {
				v := 100 * jitter
				if w.Name == slowWorkload && m.Name == "op_ms" {
					v *= opScale
				}
				r.Metrics[m.Name] = stat{Value: v, Unit: m.Unit}
			}
			tr := &result{Workload: w.Name, Trace: true, Correct: true, Attempted: 5, Metrics: map[string]stat{}}
			module := 20.0
			if w.Name == slowWorkload {
				module = modulePct
			}
			tr.Metrics["module.cpu_pct"] = stat{Value: module * jitter}
			tr.Metrics["sim.cpu_pct"] = stat{Value: (100 - module) * jitter}
			rs = append(rs, r, tr)
		}
	}
	return rs
}

func TestCompareFlagsInjectedSlowdownAndNamesLayer(t *testing.T) {
	base := synthetic(10, "", 1, 0)
	// A slowdown 2 points inside op_ms's bound is not flagged; one 2
	// points beyond it is.
	bound := endToEnd[1].Bound
	if endToEnd[1].Name != "op_ms" {
		t.Fatalf("endToEnd[1] = %+v, want op_ms", endToEnd[1])
	}
	vs, _ := compareResults(base, synthetic(10, "ckpt-recovery", 1+bound-0.02, 20))
	for _, v := range vs {
		if v.Verdict != unchanged {
			t.Errorf("%.0f%% slower: %s %s: %s, want %s", 100*(bound-0.02), v.Workload, v.Metric, v.Verdict, unchanged)
		}
	}
	head := synthetic(10, "ckpt-recovery", 1+bound+0.02, 35)
	vs, ls := compareResults(base, head)
	if len(vs) != len(workloadDefs)*len(endToEnd) {
		t.Fatalf("%d verdicts, want one per workload and metric", len(vs))
	}
	for _, v := range vs {
		want := unchanged
		if v.Workload == "ckpt-recovery" && v.Metric == "op_ms" {
			want = worse
		}
		if v.Verdict != want {
			t.Errorf("%.0f%% slower: %s %s: %s (base %v head %v), want %s", 100*(bound+0.02), v.Workload, v.Metric, v.Verdict, v.BaseMed, v.HeadMed, want)
		}
	}
	var top *layerShift
	for i := range ls {
		if ls[i].Workload == "ckpt-recovery" {
			top = &ls[i]
			break
		}
	}
	if top == nil || top.Metric != "module.cpu_pct" || top.Head-top.Base < 10 {
		t.Errorf("top rising layer on ckpt-recovery = %+v, want module.cpu_pct up ~15 pp", top)
	}

	// End to end through files: exit status 1 and the layer named.
	dir := t.TempDir()
	write := func(name string, rs []*result) string {
		var buf bytes.Buffer
		for _, r := range rs {
			buf.WriteString("human line the parser skips\n")
			b, _ := json.Marshal(r)
			buf.Write(b)
			buf.WriteString("\n{\"correct\":true}\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-compare", write("base.jsonl", base), write("head.jsonl", head)}, &out, &errOut)
	if code != 1 {
		t.Errorf("compare exit %d, want 1 (a metric got worse); stderr %s", code, errOut.String())
	}
	for _, want := range []string{"ckpt-recovery   op_ms", "worse", "layer module.cpu_pct"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestCompareNeedsNineTenthsOfTenPairsForAGain(t *testing.T) {
	base := synthetic(10, "", 1, 0)
	head := synthetic(10, "fpu-matmul", 0.8, 20)
	vs, _ := compareResults(base, head)
	for _, v := range vs {
		if v.Workload == "fpu-matmul" && v.Metric == "op_ms" && v.Verdict != improved {
			t.Errorf("20%% faster in every pair: %s, want improved", v.Verdict)
		}
	}
	nine := 2 * len(workloadDefs) * 9 // nine runs, timed and traced, of every workload
	vs, _ = compareResults(base[:nine], head[:nine])
	for _, v := range vs {
		if v.Workload == "fpu-matmul" && v.Metric == "op_ms" && v.Verdict == improved {
			t.Errorf("a gain claimed from %d pairs", v.Pairs)
		}
	}
}

func TestCompareReportsWideSpreadAsUnresolved(t *testing.T) {
	m := metricDef{"op_ms", "ms", "lower", 0.10}
	b := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	h := []float64{101, 99, 100, 102, 98, 100, 101, 99, 100, 100}
	if v := judge("w", m, b, h); v.Verdict != unresolved {
		t.Errorf("base IQR above the bound: %s, want unresolved", v.Verdict)
	}
}
