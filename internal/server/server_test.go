package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ese/internal/jobspec"
	"ese/internal/metrics"
)

const dotSrc = `int a[8]; int b[8];
void main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 8; i++) { a[i] = i; b[i] = 2 * i; }
  for (i = 0; i < 8; i++) acc = acc + a[i] * b[i];
  out(acc);
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = time.Minute // nothing in these tests should run away
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func estimateSpec() *jobspec.Spec {
	s := jobspec.Default()
	s.Source = jobspec.Source{Name: "dot.c", Code: dotSrc}
	return &s
}

// slowTLMSpec simulates ~74M IR instructions (frames=40), long enough
// that concurrent submissions reliably land while the leader runs.
func slowTLMSpec() *jobspec.Spec {
	s := jobspec.DefaultTLM()
	s.Frames = 40
	s.Calibrate = false
	// Pin the tree-walking engine: these tests need a wide in-flight
	// window to observe/cancel the job, and the generated tier finishes
	// this workload in milliseconds.
	s.Exec = "tree"
	return &s
}

func mustBody(t *testing.T, s *jobspec.Spec) []byte {
	t.Helper()
	data, err := s.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return data
}

// postJobErr submits a job and returns the response; safe to call from
// helper goroutines (no t.Fatal).
func postJobErr(ts *httptest.Server, body []byte, tenant string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func postJob(t *testing.T, ts *httptest.Server, body []byte, tenant string) (int, []byte) {
	t.Helper()
	code, data, err := postJobErr(ts, body, tenant)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return code, data
}

// waitForState polls the status endpoint until the job reaches the state.
func waitForState(t *testing.T, ts *httptest.Server, fp, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + fp)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil && st.State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", fp, state)
}

func TestHealthzMetricsAndJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	code, body := postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusOK {
		t.Fatalf("POST status = %d: %s", code, body)
	}
	var res jobspec.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if res.Kind != jobspec.KindEstimate || res.Summary == "" || len(res.Blocks) == 0 {
		t.Fatalf("thin result: %+v", res)
	}
	if res.Fingerprint != estimateSpec().Fingerprint() {
		t.Fatal("server fingerprint differs from the client-side one")
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var snap metrics.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap.Counters["server.jobs.executed"] != 1 {
		t.Fatalf("executed = %d, want 1", snap.Counters["server.jobs.executed"])
	}
	if snap.Counters["cache.sched.misses"] == 0 {
		t.Fatal("shared cache saw no traffic")
	}

	// Three TLM jobs on one workload: the second reuses the first's program
	// and records the workload, the third replays that recording.
	tlm := jobspec.DefaultTLM()
	tlm.Frames, tlm.Calibrate = 1, false
	for _, size := range []int{2048, 16384, 0} {
		tlm.ICache, tlm.DCache = size, size
		if code, body := postJob(t, ts, mustBody(t, &tlm), ""); code != http.StatusOK {
			t.Fatalf("TLM POST status = %d: %s", code, body)
		}
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap.Counters["jobspec.program.misses"] != 1 || snap.Counters["jobspec.program.hits"] != 2 {
		t.Fatalf("program memo counted %d misses and %d hits, want 1 and 2",
			snap.Counters["jobspec.program.misses"], snap.Counters["jobspec.program.hits"])
	}
	if snap.Counters["jobspec.replay.records"] != 1 || snap.Counters["jobspec.replay.hits"] != 1 || snap.Counters["tlm.replays"] != 1 {
		t.Fatalf("replay counted %d recordings, %d replays and %d tlm replays, want 1, 1 and 1",
			snap.Counters["jobspec.replay.records"], snap.Counters["jobspec.replay.hits"], snap.Counters["tlm.replays"])
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("metrics prom: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prom content type = %q", ct)
	}
	for _, line := range []string{"server_jobs_executed 4", "jobspec_program_hits 2", "jobspec_program_misses 1",
		"jobspec_replay_records 1", "jobspec_replay_hits 1", "tlm_replays 1"} {
		if !strings.Contains(string(prom), line) {
			t.Fatalf("prom exposition missing %q:\n%s", line, prom)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, _ := postJob(t, ts, []byte(`{"kind":"nope"}`), "")
	if code != http.StatusBadRequest {
		t.Fatalf("bad kind status = %d, want 400", code)
	}
	code, _ = postJob(t, ts, []byte(`{"kind":"tlm","design":"SW","framez":1}`), "")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", code)
	}
	// A workload beyond jobspec.MaxFrames is refused before any input is
	// generated for it.
	code, _ = postJob(t, ts, []byte(`{"kind":"tlm","design":"SW","frames":1000000000}`), "")
	if code != http.StatusBadRequest {
		t.Fatalf("frames beyond MaxFrames status = %d, want 400", code)
	}
	// The board engine has no cycle-attribution profile.
	code, _ = postJob(t, ts, []byte(`{"kind":"tlm","engine":"board","profile":true}`), "")
	if code != http.StatusBadRequest {
		t.Fatalf("profiled board job status = %d, want 400", code)
	}
	// An estimate job naming no built-in PE model is the request's fault.
	code, _ = postJob(t, ts, []byte(`{"kind":"estimate","model":{"name":"bogus"},"source":{"code":"void main() { out(1); }"}}`), "")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown PE model status = %d, want 400", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs status = %d, want 405", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatalf("GET unknown job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// A front-end failure (parse error) maps to 400, like CLI exit 2.
	bad := estimateSpec()
	bad.Source.Code = "void main( {"
	code, _ = postJob(t, ts, mustBody(t, bad), "")
	if code != http.StatusBadRequest {
		t.Fatalf("parse failure status = %d, want 400", code)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	s := slowTLMSpec()
	s.Timeout = jobspec.Duration(time.Millisecond)
	code, body := postJob(t, ts, mustBody(t, s), "")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504: %s", code, body)
	}
	// A calibration runs under its job's deadline too: the merged training
	// set takes far longer than 20 ms.
	code, body = postJob(t, ts, []byte(`{"kind":"calibrate","timeout":"20ms"}`), "")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("calibration deadline status = %d, want 504: %s", code, body)
	}
}

// TestProfiledLoopTimesOutAndFreesSlot checks that the default job
// timeout bounds a profiled estimate job whose program never terminates,
// and a board job whose workload runs far longer than the timeout: each
// request gets 504 and the server's only worker slot is free again.
func TestProfiledLoopTimesOutAndFreesSlot(t *testing.T) {
	loop := estimateSpec()
	loop.Source.Code = `int x; void main() { while (1) { x = x + 1; } }`
	loop.Profile = true
	board := jobspec.DefaultTLM()
	board.Engine, board.Frames, board.Calibrate = jobspec.EngineBoard, 400, false
	for _, tc := range []struct {
		name string
		spec *jobspec.Spec
	}{
		{"looping profiled job", loop},
		{"board job", &board},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, DefaultTimeout: 200 * time.Millisecond})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(mustBody(t, tc.spec)))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("%s got no answer: %v", tc.name, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("%s status = %d, want 504: %s", tc.name, resp.StatusCode, body)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("504 arrived after %v", el)
			}
			if n := len(s.sem); n != 0 {
				t.Fatalf("%d worker slots still held after the timeout", n)
			}
			code, body := postJob(t, ts, mustBody(t, estimateSpec()), "")
			if code != http.StatusOK {
				t.Fatalf("job after the timeout: status %d: %s", code, body)
			}
		})
	}
}

// A tenant program that panics the engine of a profiled estimate fails
// its own job with 500 and a stage-tagged panic; the server survives and
// answers the next job.
func TestProfiledPanicIs500AndServerSurvives(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := estimateSpec()
	bad.Source.Code = `int main(){int a[2000000000]; int b[2000000000]; a[1]=1; b[2]=2; return a[1]+b[2];}`
	bad.Profile = true
	code, body := postJob(t, ts, mustBody(t, bad), "")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "internal panic") {
		t.Fatalf("panicking job: status %d, want 500 with an internal panic: %s", code, body)
	}
	code, body = postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusOK {
		t.Fatalf("job after the panic: status %d: %s", code, body)
	}
}

// TestCoalescing is the acceptance check: 8 concurrent identical jobs on a
// fresh server perform exactly one cache-miss compile (the shared cache's
// miss counters match a single-job baseline), one execution, and return
// bit-identical response bodies.
func TestCoalescing(t *testing.T) {
	// Baseline: the same job alone on a fresh server.
	bs, base := newTestServer(t, Config{Workers: 4})
	code, _ := postJob(t, base, mustBody(t, slowTLMSpec()), "")
	if code != http.StatusOK {
		t.Fatalf("baseline status = %d", code)
	}
	baseMisses := bs.Cache().Stats().SchedMisses
	if baseMisses == 0 {
		t.Fatal("baseline did no compiles")
	}

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	const n = 8
	body := mustBody(t, slowTLMSpec())
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			codes[i], bodies[i] = postJob(t, ts, body, fmt.Sprintf("tenant%d", i))
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d status = %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\n----\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.Metrics().Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("executed = %d, want exactly 1", got)
	}
	if got := s.Metrics().Counter("server.jobs.coalesced").Value(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	if got := s.Cache().Stats().SchedMisses; got != baseMisses {
		t.Fatalf("8 concurrent jobs compiled %d schedules, single job compiles %d", got, baseMisses)
	}
}

func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	slow := slowTLMSpec()
	fp := slow.Fingerprint()
	go postJobErr(ts, mustBody(t, slow), "")
	waitForState(t, ts, fp, StateRunning)

	code, body := postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429: %s", code, body)
	}

	// An identical job still coalesces — coalescing does not consume a
	// queue slot.
	code, _ = postJob(t, ts, mustBody(t, slow), "")
	if code != http.StatusOK {
		t.Fatalf("coalesced-while-full status = %d, want 200", code)
	}

	// The slot frees once the job completes.
	code, _ = postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusOK {
		t.Fatalf("after-drain status = %d, want 200", code)
	}
}

func TestTenantLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16, TenantMax: 1})
	slow := slowTLMSpec()
	go postJobErr(ts, mustBody(t, slow), "alice")
	waitForState(t, ts, slow.Fingerprint(), StateRunning)

	// Same tenant, different job: over the per-tenant bound.
	code, body := postJob(t, ts, mustBody(t, estimateSpec()), "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("tenant-limit status = %d, want 429: %s", code, body)
	}
	// Another tenant is unaffected.
	code, _ = postJob(t, ts, mustBody(t, estimateSpec()), "bob")
	if code != http.StatusOK {
		t.Fatalf("other-tenant status = %d, want 200", code)
	}
}

// TestCancelMidSimulate drives the satellite scenario end to end: an HTTP
// job canceled mid-Simulate comes back 499 with a StageSimulate-tagged
// cancellation diagnostic, frees its queue slot, and leaves the shared
// cache serving correct results.
func TestCancelMidSimulate(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	slow := slowTLMSpec()
	fp := slow.Fingerprint()

	type outcome struct {
		code int
		body []byte
	}
	resc := make(chan outcome, 1)
	go func() {
		code, body := postJob(t, ts, mustBody(t, slow), "")
		resc <- outcome{code, body}
	}()
	waitForState(t, ts, fp, StateRunning)

	// Follow the progress stream until the annotation stage completes —
	// from there the job is inside (or entering) the Simulate stage.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + fp + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("events content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sawAnnotate := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"stage":"annotate"`) {
			sawAnnotate = true
			break
		}
	}
	if !sawAnnotate {
		t.Fatal("event stream ended without an annotate stage event")
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+fp, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", dresp.StatusCode)
	}

	out := <-resc
	if out.code != StatusClientClosedRequest {
		t.Fatalf("canceled job status = %d, want 499: %s", out.code, out.body)
	}
	var eb struct {
		Error  string          `json:"error"`
		Result *jobspec.Result `json:"result"`
	}
	if err := json.Unmarshal(out.body, &eb); err != nil {
		t.Fatalf("error body decode: %v", err)
	}
	if eb.Result == nil {
		t.Fatal("canceled job carries no partial result")
	}
	tagged := false
	for _, d := range eb.Result.Diagnostics {
		if strings.Contains(d, "simulate") && strings.Contains(d, "cancel") {
			tagged = true
		}
	}
	if !tagged {
		t.Fatalf("no StageSimulate cancellation diagnostic in %q", eb.Result.Diagnostics)
	}

	// The queue slot is free again (Workers=1, QueueDepth=0: a stuck slot
	// would reject this outright or deadlock it).
	code, body := postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusOK {
		t.Fatalf("post-cancel status = %d: %s", code, body)
	}

	// The shared cache was not poisoned: the same job completes and agrees
	// with an execution on a fresh, never-canceled server.
	before := srv.Cache().Stats()
	code, body = postJob(t, ts, mustBody(t, slow), "")
	if code != http.StatusOK {
		t.Fatalf("re-run status = %d: %s", code, body)
	}
	var rerun jobspec.Result
	if err := json.Unmarshal(body, &rerun); err != nil {
		t.Fatalf("re-run decode: %v", err)
	}
	if rerun.TLM == nil || rerun.TLM.CyclesByPE["mb"] == 0 {
		t.Fatalf("re-run result thin: %+v", rerun.TLM)
	}
	after := srv.Cache().Stats()
	if after.SchedMisses != before.SchedMisses {
		t.Fatalf("re-run recompiled schedules after the cancel: %+v -> %+v", before, after)
	}
	if after.EstHits == before.EstHits && after.SchedHits == before.SchedHits {
		t.Fatal("re-run did not reuse the shared cache")
	}

	_, fresh := newTestServer(t, Config{Workers: 1})
	code, body = postJob(t, fresh, mustBody(t, slow), "")
	if code != http.StatusOK {
		t.Fatalf("fresh-server status = %d", code)
	}
	var ref jobspec.Result
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("fresh decode: %v", err)
	}
	if rerun.TLM.CyclesByPE["mb"] != ref.TLM.CyclesByPE["mb"] || rerun.TLM.EndPs != ref.TLM.EndPs {
		t.Fatalf("post-cancel cache served wrong results: %+v vs %+v", rerun.TLM, ref.TLM)
	}
}

func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	slow := slowTLMSpec()
	fp := slow.Fingerprint()
	type outcome struct {
		code int
		body []byte
	}
	resc := make(chan outcome, 1)
	go func() {
		code, body := postJob(t, ts, mustBody(t, slow), "")
		resc <- outcome{code, body}
	}()
	waitForState(t, ts, fp, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	out := <-resc
	if out.code != StatusClientClosedRequest {
		t.Fatalf("drained job status = %d, want 499: %s", out.code, out.body)
	}

	code, body := postJob(t, ts, mustBody(t, estimateSpec()), "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503: %s", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
}

func TestWaiterDepartureCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	slow := slowTLMSpec()
	fp := slow.Fingerprint()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(mustBody(t, slow)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	waitForState(t, ts, fp, StateRunning)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}

	// The sole waiter left, so the flight unwinds; the table empties.
	deadline := time.Now().Add(30 * time.Second)
	for s.lookup(fp) != nil {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never unwound")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Metrics().Counter("server.jobs.canceled").Value(); got == 0 {
		t.Fatal("waiter departure did not count as a cancellation")
	}
}
