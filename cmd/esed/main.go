// Command esed is the estimation daemon: an HTTP/JSON service over the
// same job specs the CLI front ends build from flags. Clients POST
// estimation or TLM jobs to /v1/jobs and receive estimates, simulation
// results, attribution profiles and structured diagnostics; concurrent
// identical jobs coalesce onto one execution, and every job shares one
// process-wide content-addressed schedule/estimate cache.
//
// Usage:
//
//	esed [flags]
//
//	-addr HOST:PORT    listen address (default localhost:8372)
//	-workers N         concurrently executing jobs (default GOMAXPROCS)
//	-queue N           jobs admitted beyond the executing ones (default 64)
//	-tenant-max N      per-tenant active-job bound, keyed by the X-Tenant
//	                   header (0 = unlimited)
//	-job-timeout D     default wall-clock bound for jobs whose spec sets
//	                   none (default 2m, 0 = unbounded)
//	-cache-limit N     shared cache bound: N schedule entries and N block
//	                   estimates across the estimate tables (0 = unbounded)
//
// Endpoints: POST /v1/jobs, GET|DELETE /v1/jobs/{fingerprint},
// GET /v1/jobs/{fingerprint}/events (SSE), /healthz, /metrics
// (?format=prom), /debug/pprof. See README.md for the HTTP API and the
// error→status mapping.
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, in-flight
// jobs are canceled and answered with 499, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ese/internal/cli"
	"ese/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8372", "listen address")
	workers := flag.Int("workers", 0, "concurrently executing jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "jobs admitted beyond the executing ones")
	tenantMax := flag.Int("tenant-max", 0, "per-tenant active-job bound (0 = unlimited)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "default job timeout when the spec sets none (0 = unbounded)")
	cacheLimit := flag.Int("cache-limit", 0, "shared cache bound: schedule entries, and block estimates across estimate tables (0 = unbounded)")
	drainWait := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight jobs to unwind")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: esed [flags]")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	cli.Fail("esed", run(*addr, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		TenantMax:      *tenantMax,
		DefaultTimeout: *jobTimeout,
		CacheLimit:     *cacheLimit,
	}, *drainWait))
}

func run(addr string, cfg server.Config, drainWait time.Duration) error {
	if cfg.QueueDepth < 0 || cfg.TenantMax < 0 || cfg.CacheLimit < 0 || cfg.DefaultTimeout < 0 {
		return cli.Input(errors.New("negative sizing flag"))
	}
	s := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "esed: listening on http://%s (POST /v1/jobs)\n", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed before any signal — bad address, port in use.
		return cli.Input(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "esed: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	// Drain order: cancel the jobs first so waiting request handlers
	// unblock (with 499s), then close the listener once they have written
	// their responses.
	derr := s.Shutdown(dctx)
	herr := httpSrv.Shutdown(dctx)
	if derr != nil {
		return derr
	}
	return herr
}
