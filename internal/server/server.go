// Package server implements the esed estimation daemon: an HTTP/JSON
// front end over the shared internal/jobspec surface. Clients POST job
// specs and receive estimates, TLM results, attribution profiles and
// structured diagnostics; the daemon multiplexes every request onto one
// process-wide content-addressed schedule/estimate cache, so a fleet of
// clients estimating the same programs against the same PE models warms
// a single cache instead of recompiling per connection.
//
// Concurrency model:
//
//   - Every request is one waiter on one flight (see flight.go). Requests
//     whose specs share a fingerprint coalesce onto the same flight: one
//     leader executes the job, every waiter receives the same result.
//   - At most Config.Workers flights execute simultaneously; up to
//     Config.QueueDepth more may be admitted and queue for a worker slot.
//     Beyond that, submissions are rejected with 429.
//   - Per-tenant fairness: a tenant (the X-Tenant request header) may have
//     at most Config.TenantMax flights active at once.
//   - Cancellation rides the internal/diag context plumbing: a request
//     deadline maps to the job context, the last departing waiter cancels
//     the flight, and pipeline stages return diag.ErrCanceled /
//     diag.ErrDeadline with stage-tagged diagnostics.
//   - Shutdown drains: new submissions are refused with 503, in-flight
//     jobs are canceled (their waiters see diag.ErrCanceled), and Shutdown
//     returns when every leader has exited.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ese/internal/core"
	"ese/internal/diag"
	"ese/internal/jobspec"
	"ese/internal/metrics"
)

// Config sizes the daemon.
type Config struct {
	// Workers bounds concurrently executing jobs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted beyond the executing ones (0 = none:
	// a job is either running or rejected).
	QueueDepth int
	// TenantMax bounds the flights one tenant may have active (0 = no
	// per-tenant bound).
	TenantMax int
	// DefaultTimeout bounds jobs whose spec carries no timeout (0 = none).
	DefaultTimeout time.Duration
	// CacheLimit bounds the shared schedule/estimate cache to that many
	// schedule entries and that many block estimates across its estimate
	// tables (0 = unbounded; see core.NewCacheLimit).
	CacheLimit int
}

// Sentinel admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrDraining rejects submissions while the server shuts down (503).
	ErrDraining = errors.New("server draining")
	// ErrQueueFull rejects submissions beyond Workers+QueueDepth (429).
	ErrQueueFull = errors.New("job queue full")
	// ErrTenantLimit rejects a tenant beyond its concurrency bound (429).
	ErrTenantLimit = errors.New("tenant concurrency limit reached")
)

// Server owns the shared cache, the metric registry and the flight table.
type Server struct {
	cfg    Config
	runner jobspec.Runner
	cache  *core.Cache
	reg    *metrics.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc

	sem chan struct{} // worker slots
	wg  sync.WaitGroup

	mu       sync.Mutex
	flights  map[string]*flight
	tenants  map[string]int
	draining bool

	// dse serializes design-space sweeps (one per daemon; see dse.go).
	dse dseGate

	executed  *metrics.Counter // leader runs started
	coalesced *metrics.Counter // requests that joined an existing flight
	rejected  *metrics.Counter // admissions refused (queue/tenant/drain)
	canceled  *metrics.Counter // flights canceled before completion
	completed *metrics.Counter // flights finished without error
	failed    *metrics.Counter // flights finished with an error
	active    *metrics.Gauge   // flights currently in the table
}

// New builds a Server. The zero Config is usable: GOMAXPROCS workers, no
// queue, no tenant bound, unbounded cache.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	reg := metrics.NewRegistry()
	cache := core.NewCacheLimit(cfg.CacheLimit)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		runner: jobspec.Runner{
			Cache:          cache,
			Metrics:        reg,
			DefaultTimeout: cfg.DefaultTimeout,
		},
		cache:      cache,
		reg:        reg,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.Workers),
		flights:    make(map[string]*flight),
		tenants:    make(map[string]int),
		executed:   reg.Counter("server.jobs.executed"),
		coalesced:  reg.Counter("server.jobs.coalesced"),
		rejected:   reg.Counter("server.jobs.rejected"),
		canceled:   reg.Counter("server.jobs.canceled"),
		completed:  reg.Counter("server.jobs.completed"),
		failed:     reg.Counter("server.jobs.failed"),
		active:     reg.Gauge("server.flights.active"),
	}
	return s
}

// Cache exposes the shared schedule/estimate cache (tests, introspection).
func (s *Server) Cache() *core.Cache { return s.cache }

// Metrics exposes the shared registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// submit admits a validated spec: it either joins an existing flight with
// the same fingerprint or creates one, starting a leader goroutine. The
// caller holds one waiter slot on the returned flight and must release it
// with leave() if it stops waiting before the flight completes.
func (s *Server) submit(spec *jobspec.Spec, tenant string) (*flight, error) {
	fp := spec.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Inc()
		return nil, ErrDraining
	}
	if f, ok := s.flights[fp]; ok {
		f.mu.Lock()
		f.waiters++
		f.mu.Unlock()
		s.coalesced.Inc()
		return f, nil
	}
	if len(s.flights) >= s.cfg.Workers+s.cfg.QueueDepth {
		s.rejected.Inc()
		return nil, ErrQueueFull
	}
	if s.cfg.TenantMax > 0 && s.tenants[tenant] >= s.cfg.TenantMax {
		s.rejected.Inc()
		return nil, fmt.Errorf("%w (tenant %q, limit %d)", ErrTenantLimit, tenant, s.cfg.TenantMax)
	}
	f := newFlight(s.baseCtx, fp, tenant, spec)
	s.flights[fp] = f
	s.tenants[tenant]++
	s.active.Set(int64(len(s.flights)))
	s.wg.Add(1)
	go s.lead(f)
	return f, nil
}

// lead is the flight's leader goroutine: wait for a worker slot, execute
// the job, publish the outcome, release the table entry.
func (s *Server) lead(f *flight) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-f.ctx.Done():
		// Canceled while queued: no pipeline ran, so synthesize the typed
		// cancellation error the stages would have returned.
		f.err = diag.FromContext(f.ctx)
		s.finish(f)
		return
	}
	f.setState(StateRunning)
	s.executed.Inc()
	f.res, f.err = s.runner.RunWith(f.ctx, f.spec, jobspec.RunOpts{StageHook: f.publish})
	<-s.sem
	s.finish(f)
}

// finish removes the flight from the table and wakes every waiter. The
// removal happens before done closes, so a request arriving after
// completion starts a fresh flight (results are not memoized here — the
// schedule/estimate cache underneath makes the re-run cheap and the
// response reflects a real execution).
func (s *Server) finish(f *flight) {
	s.mu.Lock()
	delete(s.flights, f.fp)
	if n := s.tenants[f.tenant] - 1; n > 0 {
		s.tenants[f.tenant] = n
	} else {
		delete(s.tenants, f.tenant)
	}
	s.active.Set(int64(len(s.flights)))
	s.mu.Unlock()
	if f.err != nil {
		s.failed.Inc()
	} else {
		s.completed.Inc()
	}
	f.setState(StateDone)
	f.cancel() // release the context's resources
	close(f.done)
}

// leave releases one waiter slot. When the last waiter departs before the
// flight completes, the job is canceled — nobody is listening for the
// answer, so the worker slot is worth more than the result.
func (s *Server) leave(f *flight) {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0 && f.state != StateDone
	f.mu.Unlock()
	if last {
		s.canceled.Inc()
		f.cancel()
	}
}

// lookup returns the in-flight job with the given fingerprint, nil when
// none is active.
func (s *Server) lookup(fp string) *flight {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flights[fp]
}

// CancelJob cancels the in-flight job with the given fingerprint. It
// reports whether such a job existed.
func (s *Server) CancelJob(fp string) bool {
	f := s.lookup(fp)
	if f == nil {
		return false
	}
	s.canceled.Inc()
	f.cancel()
	return true
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new submissions are refused with
// ErrDraining, every in-flight job is canceled (waiters observe
// diag.ErrCanceled), and the call returns when all leaders have exited or
// the context expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	fl := make([]*flight, 0, len(s.flights))
	for _, f := range s.flights {
		fl = append(fl, f)
	}
	s.mu.Unlock()
	for _, f := range fl {
		s.canceled.Inc()
		f.cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.baseCancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}
