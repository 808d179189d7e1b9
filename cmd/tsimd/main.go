// Command tsimd hosts the simulator as a long-running HTTP/JSON job
// service (internal/serve): a bounded admission queue with per-tenant
// rate limits in front of a worker pool, a content-addressed result
// cache, and a graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	tsimd -addr :8097 -data-dir /var/lib/tsimd
//	curl -s :8097/jobs -d '{"workload":"saxpy","flags":{"dim":"1","rows":"5"}}'
//	curl -s :8097/jobs/j1
//	curl -s :8097/jobs/j1/result
//	curl -s :8097/stats
//
// With -pprof N, net/http/pprof is served on 127.0.0.1:N (loopback
// only, separate listener) for live CPU/heap profiling of long runs.
//
// With -data-dir, tsimd is crash-safe: every accepted job is fsync'd to
// a write-ahead journal before the submission is acknowledged, and every
// completed result lands in a checksummed on-disk store before the job
// reports done. After a crash (even kill -9) the next start replays the
// journal — completed jobs serve their stored bytes, interrupted jobs
// re-run deterministically — and /readyz stays 503 until recovery
// finishes. A journal with mid-file corruption refuses startup with an
// error naming the bad segment; move it aside to discard that history.
//
// On SIGTERM the server stops admitting (new submissions get 503,
// /readyz flips), finishes everything queued and running within the
// -drain deadline, and exits 0; if the deadline passes, in-flight jobs
// are canceled at their kernels' next event boundary and tsimd exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the -pprof loopback listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"tseries/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("tsimd", flag.ExitOnError)
	addr := fs.String("addr", ":8097", "listen address")
	queue := fs.Int("queue", 64, "job queue capacity")
	workers := fs.Int("workers", 4, "worker goroutines")
	cache := fs.Int("cache", 256, "result-cache entries (negative disables)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-job deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM")
	rate := fs.Float64("rate", 50, "per-tenant submissions per second")
	burst := fs.Float64("burst", 100, "per-tenant submission burst")
	inflight := fs.Int("inflight", 32, "per-tenant queued+running ceiling")
	shardBudget := fs.Int("shard-budget", 0, "pool-wide extra kernel-shard workers (0: 2x workers; negative disables sharding)")
	dataDir := fs.String("data-dir", "", "crash-safety root: job journal + result store (empty: memory-only)")
	segBytes := fs.Int64("journal-segment", 0, "journal segment rotation size in bytes (0: 1 MiB)")
	pprofPort := fs.Int("pprof", 0, "serve net/http/pprof on 127.0.0.1:<port> (0 disables)")
	fs.Parse(os.Args[1:])

	if *pprofPort != 0 {
		// Profiling stays on loopback, on its own listener and mux, so it
		// is never reachable through the public job endpoint.
		paddr := fmt.Sprintf("127.0.0.1:%d", *pprofPort)
		go func() {
			fmt.Fprintf(os.Stderr, "tsimd: pprof on http://%s/debug/pprof/\n", paddr)
			if err := http.ListenAndServe(paddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tsimd: pprof:", err)
			}
		}()
	}

	srv, err := serve.Open(serve.Options{
		Queue:        *queue,
		Workers:      *workers,
		CacheCap:     *cache,
		JobTimeout:   *timeout,
		Rate:         *rate,
		Burst:        *burst,
		MaxInFlight:  *inflight,
		ShardBudget:  *shardBudget,
		DataDir:      *dataDir,
		SegmentBytes: *segBytes,
	})
	if err != nil {
		// Typically a *durable.CorruptError: the journal holds mid-file
		// damage that is not a torn tail. Refuse to serve rather than
		// invent history; the message names the segment to repair or move.
		fmt.Fprintln(os.Stderr, "tsimd:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsimd:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "tsimd: serving on %s (queue %d, workers %d)\n", ln.Addr(), *queue, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tsimd: %s; draining (deadline %s)\n", s, *drain)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "tsimd:", err)
		os.Exit(1)
	}

	// Drain first so pollers can still fetch statuses and results while
	// queued work finishes; only then stop the HTTP listener.
	drainErr := srv.Drain(*drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "tsimd:", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tsimd: drained cleanly")
}

// Timeouts of the public listener. A client that sends half a request
// and stops would otherwise hold its connection and goroutine forever
// (slowloris). There is no write timeout, so a slow reader of a large
// result is not cut off.
const (
	headerTimeout = 5 * time.Second  // request line and header
	readTimeout   = 30 * time.Second // whole request, body included
	idleTimeout   = 2 * time.Minute  // keep-alive wait for the next request
)

// newHTTPServer returns the public listener's server for h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
