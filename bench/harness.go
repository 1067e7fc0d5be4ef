package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A page is the unit of input: a fixed batch of operations built from a
// page number alone, so its output digest can be committed in golden.json.
// The workload seed only chooses which pages of the pool a run visits and
// in what order; every page a run executes is checked against its golden
// digest, whatever the seed.
type pageResult struct {
	work   int       // throughput units completed (points, jobs, requests, scoreboards)
	lat    []float64 // latency of each request-shaped call, ms
	ops    int       // operations attempted
	failed int       // operations that failed
	digest string    // digest of the page's host-independent outputs ("" if it failed)
	err    error     // first failure
	// info carries exact results worth printing (accuracy_score's MAPE).
	info map[string]float64
}

// workload is one benchmark workload: a page pool plus the state that
// serves it.
type workload interface {
	// clients is the number of closed-loop clients running pages at once.
	clients() int
	// pool is the number of distinct pages (0 = one fixed page, repeated).
	pool(sz sizing) int
	// memWork is the work after which the window reads the process's peak
	// resident set, so max_rss_mb covers the same work whatever the host's
	// speed (esed_mixed's cache grows with every request).
	memWork() int
	// setup builds a fresh instance; the harness times it as setup_s.
	setup(ctx context.Context, sz sizing, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// page runs one page for a client. tr is nil on the untraced run.
	page(ctx context.Context, client, page int, tr *tracer) pageResult
	// counters reads the instance's cumulative counters.
	counters(ctx context.Context) (counters, error)
	// layers derives the span-based per-layer metrics of a traced window,
	// after replaying whatever the window recorded for replay.
	layers(ctx context.Context, tr *tracer, w *window) (map[string]float64, error)
	// trackName labels a trace track (a client or a worker).
	trackName(track int) string
	close() error
}

// goldenSource is an instance whose pages golden.json pins.
type goldenSource interface {
	// golden computes a page's digest twice, on the default execution
	// tier and on a second one, and fails unless they agree.
	golden(ctx context.Context, page int) (string, error)
}

// counters are cumulative named counts read from a layer (the metric
// registry, the schedule cache, the server's /metrics).
type counters map[string]float64

// delta returns after-before for every counter in after.
func (c counters) delta(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// options steer one run.
type options struct {
	seed   uint64
	window time.Duration // measured window length
	pages  int           // > 0: run exactly this many pages per client instead of a timed window
	setups int           // set-ups timed for setup_s (the last one is kept)
	size   sizing
	golden []string // golden digest per page; nil skips the check (non-standard sizing)
}

// window is what one measured window observed. Host times come twice:
// raw, and normalized by the host-speed probes (see probe.go).
type window struct {
	elapsed time.Duration // active time, probes excluded
	normSec float64       // active time, normalized
	probeMs float64       // median probe kernel time
	rssMB   float64       // peak resident set once memWork was done
	work    int
	lat     []float64 // ms
	normLat []float64 // ms, normalized
	ops     int
	failed  int
	pages   []pageDigest // in completion order
	errs    []error
	info    map[string]float64
	mem     runtime.MemStats // deltas over the window
	count   counters         // counter deltas over the window
}

type pageDigest struct {
	page   int
	digest string
}

// order returns the page sequence a run visits: a seeded permutation of
// the pool, or the single fixed page.
func order(pool int, seed uint64) []int {
	if pool <= 0 {
		return []int{0}
	}
	perm := make([]int, pool)
	for i := range perm {
		perm[i] = i
	}
	rng := splitmix(seed ^ 0x5851F42D4C957F2D)
	for i := pool - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// measure runs pages from every client until the window's active time
// is up (or each client has run o.pages pages). Client c takes pages
// seq[c], seq[c+n], ... so clients never share a page; the sequence wraps
// when a run outlasts the pool.
func measure(ctx context.Context, w workload, in instance, o options, tr *tracer) (*window, error) {
	before, err := in.counters(ctx)
	if err != nil {
		return nil, err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	seq := order(w.pool(o.size), o.seed)
	n := w.clients()
	win := &window{info: map[string]float64{}}
	var segLat [][]float64 // raw latencies per probe segment
	var mu sync.Mutex
	var wg sync.WaitGroup
	pr := newProber(n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer pr.leave()
			for k := 0; ; k++ {
				if o.pages > 0 && k >= o.pages || o.pages == 0 && pr.now() >= o.window || ctx.Err() != nil {
					return
				}
				seg := pr.checkpoint()
				p := seq[(c+k*n)%len(seq)]
				r := in.page(ctx, c, p, tr)
				if r.err == nil && o.golden != nil && r.digest != o.golden[p] {
					r.err = fmt.Errorf("page %d: output digest %s, golden %s", p, r.digest, o.golden[p])
					r.failed = r.ops
				}
				mu.Lock()
				for len(segLat) <= seg {
					segLat = append(segLat, nil)
				}
				segLat[seg] = append(segLat[seg], r.lat...)
				win.work += r.work
				if win.rssMB == 0 && win.work >= w.memWork() {
					win.rssMB = maxRSSMB()
				}
				win.lat = append(win.lat, r.lat...)
				win.ops += r.ops
				win.failed += r.failed
				win.pages = append(win.pages, pageDigest{page: p, digest: r.digest})
				if r.err != nil {
					win.errs = append(win.errs, r.err)
				}
				for name, v := range r.info {
					win.info[name] = v
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if win.rssMB == 0 {
		win.rssMB = maxRSSMB() // the window ended before memWork
	}
	win.elapsed = pr.now()
	factor, normSec := pr.finish()
	win.normSec, win.probeMs = normSec, pr.medianProbe()
	for seg, lats := range segLat {
		for _, l := range lats {
			win.normLat = append(win.normLat, l*factor[seg])
		}
	}

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	win.mem.Mallocs = m1.Mallocs - m0.Mallocs
	win.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	win.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	win.mem.NumGC = m1.NumGC - m0.NumGC
	after, err := in.counters(ctx)
	if err != nil {
		return nil, err
	}
	win.count = after.delta(before)
	if g, ok := after["sim.queue.max"]; ok {
		win.count["sim.queue.max"] = g // a gauge: report the level, not a delta
	}
	return win, nil
}

// setUp times o.setups fresh set-ups and keeps the last instance. It
// returns the raw set-up times and the host-speed factor that normalizes
// them (from probes before and after).
func setUp(ctx context.Context, w workload, o options, tr *tracer) (instance, []float64, float64, error) {
	var in instance
	var secs []float64
	before := probeHost()
	for k := 0; k < o.setups; k++ {
		start := time.Now()
		next, err := w.setup(ctx, o.size, tr)
		if err != nil {
			if in != nil {
				in.close()
			}
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if in != nil {
			if err := in.close(); err != nil {
				next.close()
				return nil, nil, 0, err
			}
		}
		in = next
	}
	return in, secs, probeRefMs / ((before + probeHost()) / 2), nil
}

// outcome is one run: the untraced window always, the traced one on
// request.
type outcome struct {
	setupS      []float64 // raw
	setupFactor float64   // normalizes setupS
	untraced    *window
	traced      *window
	layers      map[string]float64
	tracer      *tracer
	trackOf     func(int) string
}

// run executes one benchmark run of a workload. A traced run splits the
// window in two halves, untraced then traced, so it lasts as long as an
// untraced one.
func run(ctx context.Context, w workload, o options, trace bool) (*outcome, error) {
	if trace {
		o.window /= 2
	}
	in, secs, f, err := setUp(ctx, w, o, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: secs, setupFactor: f}
	out.untraced, err = measure(ctx, w, in, o, nil)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil || !trace {
		return out, err
	}

	// The traced window gets a fresh instance so it starts from the same
	// state (empty caches, a new server) as the untraced one.
	tr := newTracer()
	o.setups = 1
	in, _, _, err = setUp(ctx, w, o, tr)
	if err != nil {
		return nil, err
	}
	defer in.close()
	out.tracer, out.trackOf = tr, in.trackName
	if out.traced, err = measure(ctx, w, in, o, tr); err != nil {
		return nil, err
	}
	if out.layers, err = in.layers(ctx, tr, out.traced); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	counterLayers(out.layers, out.traced)
	return out, nil
}

// rate is work per active second of a window; normRate per normalized
// second.
func (w *window) rate() float64 { return ratio(float64(w.work), w.elapsed.Seconds()) }

func (w *window) normRate() float64 { return ratio(float64(w.work), w.normSec) }

// quantile is the q-quantile of vals by linear interpolation between the
// closest ranks (0 for no values).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// splitmix is the SplitMix64 generator: the benchmark's one source of
// seeded randomness, fixed here so inputs never depend on the Go version.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// inputSeed derives the workload-generator seed of one slot of one page.
// It is never zero, which jobspec reads as "the app's default seed".
func inputSeed(tag uint64, page, slot int) uint32 {
	s := splitmix(tag ^ uint64(page)<<16 ^ uint64(slot))
	return uint32(s.next()) | 1
}
