package core

import (
	"context"
	"runtime"
	"sync"

	"tseries/internal/workloads"
)

// The suite runner fans independent simulations across host goroutines.
// Every Experiment and workload Runner builds its own Kernel and System,
// so runs share no mutable state; the only requirement for reproducible
// output is that results are reassembled in submission order, which the
// indexed pool below guarantees. A parallel run therefore produces
// byte-identical output to a serial one.
//
// Cancellation: both runners take a context. Once it is canceled, no new
// experiment or sweep point is launched, and in-flight runs abort at
// their kernels' next event boundary — so a canceled sweep neither
// strands worker goroutines nor leaks simulated-process goroutines.

// fanIndexed executes work(0..n-1) on up to `workers` goroutines,
// stopping the feed as soon as ctx is canceled. workers < 1 means one
// per CPU; workers == 1 degenerates to a plain serial loop on the
// calling goroutine. It returns after every launched work call has
// finished.
func fanIndexed(ctx context.Context, n, workers int, work func(i int)) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			work(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				work(i)
			}
		}()
	}
feed:
	for i := 0; i < n && ctx.Err() == nil; i++ {
		// A select with both cases ready picks at random, so the check
		// above is what keeps a canceled feed from handing out work.
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

// RunSuite runs the given experiments across a pool of `workers` host
// goroutines (workers < 1: one per CPU) and returns their results in
// suite order. If any experiment fails, the returned error is the
// earliest failure in suite order — not arrival order — so error
// reporting is deterministic too; results of the experiments that
// succeeded are still returned (failed slots are nil). A canceled ctx
// stops launching experiments, aborts in-flight ones, and marks every
// unfinished slot with the context's error.
func RunSuite(ctx context.Context, exps []Experiment, workers int) ([]*Result, error) {
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	launched := make([]bool, len(exps))
	fanIndexed(ctx, len(exps), workers, func(i int) {
		launched[i] = true
		results[i], errs[i] = exps[i].Run(ctx)
	})
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !launched[i] || (results[i] == nil && errs[i] == nil) {
				errs[i] = err
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// SweepPoint is one cube dimension of a workload sweep.
type SweepPoint struct {
	Dim    int
	Report workloads.Report
	Err    error
}

// RunSweep runs one registered workload at each cube dimension in dims,
// fanning the points across `workers` goroutines. Points come back in
// dims order with per-point errors recorded rather than aborting the
// sweep (a dimension can legitimately fail, e.g. a problem size that
// does not divide across 2^dim nodes). The workload name is resolved
// before any work starts; an unknown name fails the whole sweep. A
// canceled ctx stops launching points, aborts in-flight kernels at
// their next event boundary, records the context's error on every
// unfinished point, and is returned as the sweep error.
func RunSweep(ctx context.Context, name string, base workloads.Config, dims []int, workers int) ([]SweepPoint, error) {
	r, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(dims))
	for i, d := range dims {
		points[i] = SweepPoint{Dim: d}
	}
	done := make([]bool, len(dims))
	fanIndexed(ctx, len(dims), workers, func(i int) {
		cfg := base
		cfg.Dim = dims[i]
		cfg.Ctx = ctx
		rep, err := r.Run(cfg)
		points[i] = SweepPoint{Dim: dims[i], Report: rep, Err: err}
		done[i] = true
	})
	if err := ctx.Err(); err != nil {
		for i := range points {
			if !done[i] {
				points[i].Err = err
			}
		}
		return points, err
	}
	return points, nil
}
