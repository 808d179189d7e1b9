package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root describes this program; the two
// must list the same workloads and metrics.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, workloadDefs)
	}
	for _, l := range []struct {
		key        string
		json, code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		for i := 0; i < max(len(l.json), len(l.code)); i++ {
			var j, c metricDef
			if i < len(l.json) {
				j = l.json[i]
			}
			if i < len(l.code) {
				c = l.code[i]
			}
			if j != c {
				t.Errorf("%s[%d]: json %+v, code %+v", l.key, i, j, c)
			}
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || len(doc.Command) == 0 || doc.RunSeconds < 1 {
		t.Errorf("paths %v, command %v, run_seconds %d", doc.Paths, doc.Command, doc.RunSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v; setup_s must hold the largest", m.Name, m.Bound)
		}
	}
}
