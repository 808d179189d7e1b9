// Command tsim is the registry-driven front end to the simulator: it
// lists and runs the paper's experiments (E1..E20, ablations A1..A6)
// and the bundled scientific workloads, sweeps a workload across cube
// dimensions, and fans independent runs across a worker pool — with
// output guaranteed byte-identical to a serial run.
//
// Usage:
//
//	tsim -list
//	tsim -experiment all -parallel 4
//	tsim -experiment E5,E6,E8
//	tsim -workload saxpy  -dim 3 -rows 200
//	tsim -workload matmul -dim 2 -n 64 -json
//	tsim -workload fft    -sweep dim=1..5 -n 1024 -parallel 4
//	tsim -workload pring  -dim 3 -kernel-shards 4
//	tsim -workload recovery -dim 2 -phases 6 -faults seed=7,ber=1e-6,crash=2@12s -ckpt 8s
//	tsim -workload soak -dim 3 -reps 2 -phases 2 -chaos seed=7,dur=60s,crashes=2
//	tsim -experiment all -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"

	"tseries/internal/core"
	"tseries/internal/workloads"
)

func main() {
	// SIGINT cancels the active run through the context path: in-flight
	// kernels tear down at their next event boundary, no partial JSON is
	// emitted, and tsim exits 130 (128+SIGINT) instead of dying
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Stdout, os.Stderr, os.Args[1:]))
}

// interruptExit is the conventional exit status for a SIGINT-terminated
// process (128 + signal number).
const interruptExit = 130

// interrupted reports whether err is the run context's cancellation
// surfacing through a runner.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func run(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("tsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and workloads, then exit")
	experiment := fs.String("experiment", "", `experiment ID, comma-separated IDs, or "all"`)
	workload := fs.String("workload", "", "workload to run (see -list)")
	sweep := fs.String("sweep", "", `sweep the workload across cube sizes, e.g. "dim=2..6"`)
	parallel := fs.Int("parallel", 1, "worker goroutines for multi-run invocations (<1: one per CPU)")
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")

	cfg := workloads.DefaultConfig()
	cfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Ctx = ctx

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer writeMemProfile(stderr, *memprofile)
	}

	switch {
	case *list:
		printLists(stdout)
		return 0
	case *experiment != "":
		// Machine workloads inside experiments partition by geometry (one
		// logical shard per module) and take the flag as their host worker
		// count, so experiment output is byte-identical at every value —
		// which CI verifies.
		return runExperiments(workloads.WithKernelShards(ctx, cfg.KernelShards), stdout, stderr, *experiment, *parallel, *jsonOut)
	case *workload != "":
		return runWorkload(ctx, stdout, stderr, *workload, cfg, *sweep, *parallel, *jsonOut)
	default:
		fs.Usage()
		fmt.Fprintln(stderr)
		printLists(stderr)
		return 2
	}
}

// writeMemProfile snapshots the heap at exit. A failure to write the
// profile must not change the run's exit code, so it only warns.
func writeMemProfile(stderr io.Writer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(stderr, err)
	}
}

// printLists renders the two registries: every experiment with its
// title, and every workload with the Config flags it consumes.
func printLists(w io.Writer) {
	fmt.Fprintln(w, "Experiments (-experiment <id|all>):")
	for _, e := range core.All() {
		fmt.Fprintf(w, "  %-4s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "\nWorkloads (-workload <name>):")
	for _, r := range workloads.Runners() {
		fmt.Fprintf(w, "  %-9s flags: -%s\n", r.Name(), strings.Join(r.Flags(), " -"))
	}
}

// expJSON is the JSON shape of one experiment result.
type expJSON struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes,omitempty"`
	Output  string             `json:"output"`
}

func runExperiments(ctx context.Context, stdout, stderr io.Writer, spec string, parallel int, jsonOut bool) int {
	var exps []core.Experiment
	if spec == "all" {
		exps = core.All()
	} else {
		for _, id := range strings.Split(spec, ",") {
			e, err := core.Find(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			exps = append(exps, e)
		}
	}
	results, err := core.RunSuite(ctx, exps, parallel)
	if err != nil {
		if interrupted(err) {
			fmt.Fprintln(stderr, "tsim: interrupted")
			return interruptExit
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jsonOut {
		out := make([]expJSON, len(results))
		for i, r := range results {
			out[i] = expJSON{ID: r.ID, Title: r.Title, Metrics: r.Metrics, Notes: r.Notes, Output: r.String()}
		}
		return emitJSON(stdout, stderr, out)
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r)
	}
	return 0
}

// pointJSON is the JSON shape of one sweep point.
type pointJSON struct {
	Dim    int               `json:"dim"`
	Report *workloads.Report `json:"report,omitempty"`
	Error  string            `json:"error,omitempty"`
}

func runWorkload(ctx context.Context, stdout, stderr io.Writer, name string, cfg workloads.Config, sweep string, parallel int, jsonOut bool) int {
	if sweep != "" {
		var lo, hi int
		if n, err := fmt.Sscanf(sweep, "dim=%d..%d", &lo, &hi); n != 2 || err != nil || lo > hi {
			fmt.Fprintf(stderr, "tsim: bad -sweep %q (want dim=LO..HI)\n", sweep)
			return 2
		}
		dims := make([]int, 0, hi-lo+1)
		for d := lo; d <= hi; d++ {
			dims = append(dims, d)
		}
		points, err := core.RunSweep(ctx, name, cfg, dims, parallel)
		if err != nil {
			if interrupted(err) {
				fmt.Fprintln(stderr, "tsim: interrupted")
				return interruptExit
			}
			fmt.Fprintln(stderr, err)
			return 2
		}
		failed := 0
		if jsonOut {
			out := make([]pointJSON, len(points))
			for i, pt := range points {
				out[i] = pointJSON{Dim: pt.Dim}
				if pt.Err != nil {
					out[i].Error = pt.Err.Error()
					failed++
				} else {
					rep := pt.Report
					out[i].Report = &rep
				}
			}
			if code := emitJSON(stdout, stderr, out); code != 0 {
				return code
			}
		} else {
			for _, pt := range points {
				if pt.Err != nil {
					fmt.Fprintf(stdout, "dim=%d: error: %v\n", pt.Dim, pt.Err)
					failed++
					continue
				}
				fmt.Fprintf(stdout, "dim=%d: %s\n", pt.Dim, pt.Report)
			}
		}
		if failed == len(points) {
			return 1
		}
		return 0
	}
	r, err := workloads.Get(name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := r.Run(cfg)
	if err != nil {
		if interrupted(err) {
			fmt.Fprintln(stderr, "tsim: interrupted")
			return interruptExit
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jsonOut {
		return emitJSON(stdout, stderr, rep)
	}
	fmt.Fprintln(stdout, rep)
	return 0
}

func emitJSON(stdout, stderr io.Writer, v interface{}) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
