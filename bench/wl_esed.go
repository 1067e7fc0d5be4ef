package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ese/internal/core"
	"ese/internal/jobspec"
	"ese/internal/metrics"
	"ese/internal/server"
)

// esedMixed serves esed's default configuration (GOMAXPROCS workers, a
// queue of 64, a 2-minute job timeout, an unbounded cache) over loopback
// HTTP to two closed-loop keep-alive clients. Half the requests are TLM
// jobs from a fixed pool of twelve specs: they hit the shared cache and
// sometimes coalesce. The rest are estimate jobs on a fresh tenant
// program each, always missing the cache, and a fifth of all requests
// also profile the program on the compiled tier (tenant programs are not
// in the generated registry). It is the only workload through HTTP, the
// queue and coalescing; unbounded cache growth shows in max_rss_mb.
type esedMixed struct{}

const (
	esedClients = 2
	esedPool    = 4096
	esedTag     = 0xE5ED_0001
	// A page is a deck of 20 requests: 10 TLM, 6 estimate, 4 profiled
	// estimate, shuffled, so every page has exactly the 50/30/20 mix.
	esedTLM, esedEstimate, esedProfile = 10, 6, 4
)

func (esedMixed) clients() int       { return esedClients }
func (esedMixed) pool(sz sizing) int { return esedPool }
func (esedMixed) memWork() int       { return 5000 }

// esedTLMSpecs is the fixed pool of TLM requests: two designs of each app
// at three cache sizes, one frame (or block) each.
func esedTLMSpecs() []jobspec.Spec {
	var out []jobspec.Spec
	for _, ad := range [][2]string{{jobspec.AppMP3, "SW"}, {jobspec.AppMP3, "SW+4"}, {jobspec.AppJPEG, "SW"}, {jobspec.AppJPEG, "SW+DCT"}} {
		for _, cc := range [][2]int{{0, 0}, {8192, 4096}, {32768, 16384}} {
			s := jobspec.DefaultTLM()
			s.App, s.Design, s.Frames = ad[0], ad[1], 1
			s.ICache, s.DCache = cc[0], cc[1]
			out = append(out, s)
		}
	}
	return out
}

// esedPage returns the requests of one page, in order.
func esedPage(page int) []jobspec.Spec {
	kinds := make([]int, 0, esedTLM+esedEstimate+esedProfile)
	for k, n := range []int{esedTLM, esedEstimate, esedProfile} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, k)
		}
	}
	rng := splitmix(esedTag ^ uint64(page)<<20)
	for i := len(kinds) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	pool := esedTLMSpecs()
	specs := make([]jobspec.Spec, len(kinds))
	for i, k := range kinds {
		if k == 0 {
			specs[i] = pool[rng.intn(len(pool))]
			continue
		}
		s := jobspec.Default()
		seed := uint64(inputSeed(esedTag, page, i))<<32 | uint64(page)
		s.Source = jobspec.Source{Name: fmt.Sprintf("tenant-%d-%d.c", page, i), Code: tenantProgram(seed)}
		if k == 2 {
			s.Profile, s.Steps = true, tenantSteps
		}
		specs[i] = s
	}
	return specs
}

type esedInstance struct {
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	url      string
	profiled atomic.Int64
	replays  replayLog

	// gold runs golden-digest jobs in process, each on a private cache.
	gold    jobspec.Runner
	goldMu  sync.Mutex
	goldTLM map[string]string // TLM spec fingerprint -> digest
}

func (esedMixed) setup(ctx context.Context, sz sizing, tr *tracer) (instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{QueueDepth: 64, DefaultTimeout: 2 * time.Minute})
	in := &esedInstance{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: esedClients}},
		url:     "http://" + ln.Addr().String(),
		goldTLM: map[string]string{},
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	// The first TLM request pays the server's board calibration.
	warm := esedTLMSpecs()[1]
	id := tr.begin("server.warmup", 0, tr.newOp(), 0)
	_, err = in.post(ctx, &warm, "warmup")
	tr.end(id)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return in, nil
}

// post sends one job and decodes its result; any status but 200 fails.
func (in *esedInstance) post(ctx context.Context, s *jobspec.Spec, tenant string) (*jobspec.Result, error) {
	body, err := s.EncodeJSON()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var res jobspec.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return &res, nil
}

func (in *esedInstance) page(ctx context.Context, client, page int, tr *tracer) pageResult {
	var r pageResult
	var ch chain
	tenant := fmt.Sprintf("client%d", client)
	for _, s := range esedPage(page) {
		s := s
		op := tr.newOp()
		r.ops++
		id := tr.begin("http.request", client, op, 0)
		start := time.Now()
		res, err := in.post(ctx, &s, tenant)
		r.lat = append(r.lat, ms(time.Since(start)))
		if res != nil {
			tr.add("server.job", client, op, id, time.Duration(res.ElapsedNs))
		}
		tr.end(id)
		if err == nil {
			var d string
			if d, err = resultDigest(res); err == nil {
				ch.add(d)
			}
		}
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = fmt.Errorf("esed_mixed page %d %s job: %w", page, s.Kind, err)
			}
			continue
		}
		r.work++
		if s.Profile {
			in.profiled.Add(1)
		}
		if tr != nil {
			in.replays.note(&s, client, op)
		}
	}
	if r.failed == 0 {
		r.digest = ch.sum()
	}
	return r
}

// counters reads the server's /metrics snapshot (the shared cache's
// counters are already folded in under cache.*).
func (in *esedInstance) counters(ctx context.Context) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snapshotCounters(snap, core.CacheStats{}), nil
}

// layers replays every 16th request's front end and re-runs every 16th
// profiled estimate in process with stage hooks (its self time beyond the
// hooked stages is the profiling run), then splits request latency with
// the server's stage-time sums from /metrics.
func (in *esedInstance) layers(ctx context.Context, tr *tracer, w *window) (map[string]float64, error) {
	private := &jobspec.Runner{Cache: core.NewCache()}
	for _, it := range in.replays.take() {
		if err := replayFrontend(tr, it); err != nil {
			return nil, err
		}
		if it.spec.Profile {
			id := tr.begin("replay.job", it.track, it.op, 0)
			_, err := runJob(ctx, private, &it.spec, tr, it.track, it.op, id)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
	}
	st := tr.stats(nil)
	fe := tr.stats(underParent("replay.frontend"))
	rj := tr.stats(underParent("replay.job"))
	sec := func(stage string) float64 { return 1000 * w.count["pipeline.stage."+stage+".seconds.sum"] }
	var stages float64
	for _, s := range []string{"parse", "check", "lower", "simplify", "verify", "annotate", "simulate"} {
		stages += sec(s)
	}
	work := float64(w.work)
	rt := ms(st.total["http.request"])
	serverMs := ms(st.total["server.job"])
	profile := ratio(ms(rj.self["jobspec.run"]), float64(rj.count["jobspec.run"])) * float64(in.profiled.Load())
	build := serverMs - stages - profile
	m := map[string]float64{
		"calib.calibrate_ms":             st.medianMs("server.warmup"),
		"jobspec.build_design_ms_per_op": ratio(build, work),
		"core.annotate_ms_per_op":        ratio(sec("annotate"), work),
		"tlm.simulate_ms_per_op":         ratio(sec("simulate"), work),
		"jobspec.build_design_share":     ratio(build, rt),
		"core.annotate_share":            ratio(sec("annotate"), rt),
		"tlm.simulate_share":             ratio(sec("simulate"), rt),
		"interp.profile_share":           ratio(profile, rt),
		"server.overhead_share":          ratio(rt-serverMs, rt),
	}
	frontendLayers(m, fe)
	return m, nil
}

func (in *esedInstance) trackName(t int) string { return fmt.Sprintf("client %d", t) }

// close drains the server the way esed does on SIGTERM — jobs first, then
// the listener — and waits for the serving goroutine to return.
func (in *esedInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := in.srv.Shutdown(ctx)
	herr := in.hs.Shutdown(ctx)
	if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	in.client.CloseIdleConnections()
	if derr != nil {
		return derr
	}
	return herr
}

// golden digests one page in process (esed returns the runner's result
// as is), checking every job on a second engine.
func (in *esedInstance) golden(ctx context.Context, page int) (string, error) {
	var ch chain
	for _, s := range esedPage(page) {
		d, err := in.goldenJob(ctx, s)
		if err != nil {
			return "", fmt.Errorf("esed_mixed page %d: %w", page, err)
		}
		ch.add(d)
	}
	return ch.sum(), nil
}

// goldenJob digests one job on the default engine and again on a second
// one — compiled for TLM jobs (the default picks the generated one), the
// tree walker for tenant programs (the default picks the compiled one) —
// and fails unless they agree. TLM digests are memoized: twelve specs
// recur on every page.
func (in *esedInstance) goldenJob(ctx context.Context, s jobspec.Spec) (string, error) {
	fp := s.Fingerprint()
	in.goldMu.Lock()
	d, ok := in.goldTLM[fp]
	in.goldMu.Unlock()
	if ok {
		return d, nil
	}
	var digests [2]string
	for i := range digests {
		if i == 1 {
			s.Exec = "compiled"
			if s.Kind == jobspec.KindEstimate {
				s.Exec = "tree"
			}
		}
		res, err := in.gold.Run(ctx, &s)
		if err != nil {
			return "", err
		}
		if digests[i], err = resultDigest(res); err != nil {
			return "", err
		}
	}
	if digests[0] != digests[1] {
		return "", fmt.Errorf("%s job on exec=%s: digest %s, default %s", s.Kind, s.Exec, digests[1], digests[0])
	}
	if s.Kind == jobspec.KindTLM {
		in.goldMu.Lock()
		in.goldTLM[fp] = digests[0]
		in.goldMu.Unlock()
	}
	return digests[0], nil
}
