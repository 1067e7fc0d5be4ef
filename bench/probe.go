package main

import (
	"crypto/sha256"
	"sort"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, whose load changes
// the host's speed by tens of percent within minutes. To compare runs
// taken at different times, every host time an untraced run reports is
// normalized: multiplied by probeRefMs over the median time of a fixed
// probe kernel measured while the benchmark itself is idle. The kernel
// uses only the standard library, so no change to the repository's code
// can move it; it tracks the host, not the system under test.
const (
	probeRefMs   = 5.0              // probe kernel time on an unloaded reference host
	probeReps    = 7                // kernel runs per probe; the median is kept
	probeEvery   = time.Second      // active time between probes in a window
	probeKernelN = 1 << 15          // sort and hash sizes of the kernel
	probeBufLen  = probeKernelN * 4 // bytes hashed per kernel run
)

var probeSink byte

// probeKernel runs a fixed mix of sorting, map updates and hashing — a
// stand-in for the branchy, allocating, memory-touching work of the
// estimator — and returns its duration.
func probeKernel() time.Duration {
	start := time.Now()
	rng := splitmix(42)
	xs := make([]uint64, probeKernelN)
	for i := range xs {
		xs[i] = rng.next()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	m := make(map[uint64]int)
	for i, x := range xs[:probeKernelN/4] {
		m[x>>7] = i
	}
	buf := make([]byte, probeBufLen)
	for i := range buf {
		buf[i] = byte(xs[i%len(xs)])
	}
	sum := sha256.Sum256(buf)
	probeSink ^= sum[0] ^ byte(len(m))
	return time.Since(start)
}

// probeHost returns the median probe kernel time in milliseconds.
func probeHost() float64 {
	ds := make([]float64, probeReps)
	for i := range ds {
		ds[i] = ms(probeKernel())
	}
	return quantile(ds, 0.5)
}

// prober schedules probes inside a measured window. Clients call
// checkpoint between pages; once a probe is due, each arriving client
// waits until all running clients have arrived, so the probe runs while
// no operation is in flight. The probe's own time is excluded from the
// window's active time, and the probes split the window into segments,
// each normalized by the mean of the probes at its two ends.
type prober struct {
	mu      sync.Mutex
	cond    *sync.Cond
	start   time.Time
	paused  time.Duration
	last    time.Duration // active time of the last probe
	active  int           // clients still running pages
	waiting int
	gen     int       // probes taken so far
	at      []float64 // active time of each probe, s
	ms      []float64 // each probe's median kernel time
}

func newProber(clients int) *prober {
	p := &prober{active: clients, start: time.Now()}
	p.cond = sync.NewCond(&p.mu)
	p.probeLocked()
	return p
}

// now is the window's active time: wall time minus time spent probing.
func (p *prober) now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nowLocked()
}

func (p *prober) nowLocked() time.Duration { return time.Since(p.start) - p.paused }

func (p *prober) probeLocked() {
	t0 := time.Now()
	p.at = append(p.at, p.nowLocked().Seconds())
	p.ms = append(p.ms, probeHost())
	p.paused += time.Since(t0)
	p.last = p.nowLocked()
	p.gen++
	p.waiting = 0
	p.cond.Broadcast()
}

// checkpoint blocks for a due probe and returns the segment the client's
// next page runs in.
func (p *prober) checkpoint() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nowLocked()-p.last < probeEvery && p.waiting == 0 {
		return p.gen - 1
	}
	p.waiting++
	if p.waiting == p.active {
		p.probeLocked()
		return p.gen - 1
	}
	for gen := p.gen; gen == p.gen; {
		p.cond.Wait()
	}
	return p.gen - 1
}

// leave retires a client whose window is over; a probe waiting on it
// runs now.
func (p *prober) leave() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if p.waiting > 0 && p.waiting == p.active {
		p.probeLocked()
	}
}

// finish takes the closing probe and returns, per segment, the factor
// that normalizes its host times and its normalized duration in seconds.
func (p *prober) finish() (factor []float64, normSec float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probeLocked()
	factor = make([]float64, len(p.ms)-1)
	for i := range factor {
		factor[i] = probeRefMs / ((p.ms[i] + p.ms[i+1]) / 2)
		normSec += (p.at[i+1] - p.at[i]) * factor[i]
	}
	return factor, normSec
}

// medianProbe is the median of the window's probes.
func (p *prober) medianProbe() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return quantile(p.ms, 0.5)
}
