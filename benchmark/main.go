// Command tsbench is the repository's benchmark: five workloads that
// each load a different layer of the simulator and its job service,
// measured end to end from untraced samples and split across layers by
// a separate traced pass. See README.md for the workloads, the metric
// dictionary and how to compare two commits.
//
//	tsbench --workload lattice-12cube --seed 3 --seconds 20 --trace 0
//	tsbench -seed 1                      # all workloads, each in a child process
//	tsbench -compare base.jsonl head.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

func main() {
	if spec := os.Getenv(opEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs one sim operation for a parent tsbench process.
func childMain(spec string) int {
	if err := runOp(spec, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench: operation:", err)
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to measure in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed every input is derived from (≥ 0)")
	seconds := fs.Float64("seconds", 20, "seconds per workload run, set-up and warm-up included")
	trace := fs.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", "", "traced pass: directory for the Chrome trace and layer table (default: a new temp dir)")
	compare := fs.String("compare", "", "base result file: compare it with the head result file given as the argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "tsbench: usage: tsbench -compare base.jsonl head.jsonl")
			return 2
		}
		return runCompare(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "tsbench: want -seed ≥ 0, -seconds > 0, -trace 0 or 1, and no arguments")
		return 2
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if rc.workload == "" {
		return runAll(rc, stdout, stderr)
	}
	if !slices.ContainsFunc(workloadDefs, func(w workloadDef) bool { return w.Name == rc.workload }) {
		fmt.Fprintf(stderr, "tsbench: unknown workload %q\n", rc.workload)
		return 2
	}
	res, err := measure(rc)
	if err != nil {
		fmt.Fprintf(stderr, "tsbench: %s: %v\n", rc.workload, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "tsbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// childTimeout bounds one child process; a workload run takes well
// under a minute.
const childTimeout = 3 * time.Minute

// runAll measures every workload, each in a fresh child process so peak
// RSS and GC state belong to one workload; with -trace 1 each workload
// also gets a traced child. The last line sums the children's counts
// and lists their metrics as <workload>.<metric>.
func runAll(rc runConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "tsbench:", err)
		return 1
	}
	passes := []int{0}
	if rc.trace {
		passes = append(passes, 1)
	}
	total := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloadDefs {
		for _, pass := range passes {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(rc.seed, 10),
				"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", strconv.Itoa(pass)}
			if rc.out != "" {
				args = append(args, "-out", rc.out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
			var buf bytes.Buffer
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			err := cmd.Run()
			cancel()
			res := lastDetail(buf.Bytes())
			if err != nil || res == nil {
				fmt.Fprintf(stderr, "tsbench: %s (trace %d): %v\n", w.Name, pass, err)
				total.Correct = false
				code = 1
				if res == nil {
					continue
				}
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for _, m := range reported(res.Trace) {
				total.Metrics[w.Name+"."+m.Name] = metricValue{res.Metrics[m.Name].Value, m.Unit}
			}
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "tsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return code
}

// lastDetail returns the last result detail line in out, if any.
func lastDetail(out []byte) *result {
	rs := parseResults(out)
	if len(rs) == 0 {
		return nil
	}
	return rs[len(rs)-1]
}

// parseResults extracts every result detail line from benchmark output:
// lines holding a JSON object with a "workload" key. Other lines are
// skipped, so files of appended benchmark output parse as they are.
func parseResults(out []byte) []*result {
	var rs []*result
	for _, line := range bytes.Split(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"workload"`)) {
			continue
		}
		var r result
		if json.Unmarshal(line, &r) == nil {
			rs = append(rs, &r)
		}
	}
	return rs
}
