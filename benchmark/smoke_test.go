package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Each workload once at its tiny size, in the traced pass, which runs
// every part of the harness: set-up, warm-up, untraced and traced
// samples, profile folding, the durable probe and the trace files.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			res, err := measure(runConfig{workload: w.Name, seed: 3, seconds: 0.05, trace: true, out: out, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.Notes)
			}
			for _, name := range []string{"setup_s", "op_ms", "ops_per_s", "cpu_ms_per_op", "max_rss_mb",
				"sim.events", "fpu.flops", "durable.fsync_p50_us", "harness.op_samples"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatal(err)
			}
			if len(last.Metrics) != len(perLayer) || last.Attempted < 1 {
				t.Errorf("last line: %d metrics (want %d), attempted %d", len(last.Metrics), len(perLayer), last.Attempted)
			}
			for _, f := range []string{w.Name + ".trace.json", w.Name + ".layers.txt"} {
				if _, err := os.Stat(filepath.Join(out, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
