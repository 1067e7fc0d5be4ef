package jobspec

import (
	"context"
	"errors"
	"flag"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ese/internal/core"
	"ese/internal/diag"
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

func estimateSpec() *Spec {
	s := Default()
	s.Source = Source{Name: "dot.c", Code: dotSrc}
	return &s
}

func TestValidate(t *testing.T) {
	ok := estimateSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid estimate spec rejected: %v", err)
	}
	tlm := DefaultTLM()
	if err := tlm.Validate(); err != nil {
		t.Fatalf("valid tlm spec rejected: %v", err)
	}

	bad := []func(*Spec){
		func(s *Spec) { s.Kind = "nonsense" },
		func(s *Spec) { s.Source.Code = "" },
		func(s *Spec) { s.Model = Model{} },
		func(s *Spec) { s.Exec = "warp" },
		func(s *Spec) { s.ICache = -1 },
		func(s *Spec) { s.Timeout = Duration(-time.Second) },
		func(s *Spec) { s.Model = Model{JSON: []byte(`{"not a pum`)} },
	}
	for i, mut := range bad {
		s := estimateSpec()
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	badTLM := []func(*Spec){
		func(s *Spec) { s.Design = "SW+3" },
		func(s *Spec) { s.Frames = 0 },
		func(s *Spec) { s.Frames = MaxFrames + 1 },
		func(s *Spec) { s.Frames = 1_000_000_000 },
		func(s *Spec) { s.App, s.Design, s.Frames = AppJPEG, "SW", MaxFrames+1 },
		func(s *Spec) { s.Engine = "quantum" },
		func(s *Spec) { s.Tune = &Tune{BranchPenalty: f64(1e300)} },
		func(s *Spec) { s.Engine, s.Profile = EngineBoard, true },
	}
	for i, mut := range badTLM {
		s := DefaultTLM()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("tlm mutation %d accepted", i)
		}
	}
	tlm.Frames = MaxFrames
	if err := tlm.Validate(); err != nil {
		t.Errorf("tlm job at MaxFrames rejected: %v", err)
	}
}

func TestParseJSON(t *testing.T) {
	s, err := ParseJSON([]byte(`{"kind":"estimate","source":{"name":"x.c","code":"void main() { out(1); }"}}`))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	// Defaults survive a partial body.
	if s.Model.Name != "microblaze" || s.ICache != 8192 || s.DCache != 4096 || s.Exec != "auto" {
		t.Fatalf("defaults not applied: %+v", s)
	}

	// TLM bodies pick up the TLM defaults (frames, engine, calibrate).
	s, err = ParseJSON([]byte(`{"kind":"tlm","design":"SW+1"}`))
	if err != nil {
		t.Fatalf("ParseJSON tlm: %v", err)
	}
	if s.Frames != 2 || s.Engine != EngineTimed || !s.Calibrate {
		t.Fatalf("tlm defaults not applied: %+v", s)
	}

	// Unknown fields fail loudly.
	if _, err := ParseJSON([]byte(`{"kind":"tlm","design":"SW","framez":9}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Timeouts accept flag syntax.
	s, err = ParseJSON([]byte(`{"kind":"tlm","design":"SW","timeout":"150ms"}`))
	if err != nil {
		t.Fatalf("ParseJSON timeout: %v", err)
	}
	if time.Duration(s.Timeout) != 150*time.Millisecond {
		t.Fatalf("timeout = %v", time.Duration(s.Timeout))
	}
}

func TestFingerprint(t *testing.T) {
	a, b := estimateSpec(), estimateSpec()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs fingerprint differently")
	}
	b.ICache = 2048
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different cache configs share a fingerprint")
	}
	c := estimateSpec()
	c.Source.Code += " "
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different sources share a fingerprint")
	}
	// The JSON round trip preserves identity — what the daemon decodes
	// coalesces with what a CLI would submit.
	data, err := a.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("ParseJSON(EncodeJSON): %v", err)
	}
	if back.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across the JSON round trip")
	}

	// Fields whose default is non-zero survive the round trip even at
	// their zero value: calibrate=false must not be re-defaulted to true.
	tl := DefaultTLM()
	tl.Calibrate = false
	data, err = tl.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON tlm: %v", err)
	}
	back, err = ParseJSON(data)
	if err != nil {
		t.Fatalf("ParseJSON tlm: %v", err)
	}
	if back.Calibrate {
		t.Fatal("calibrate=false lost in the JSON round trip")
	}
	if back.Fingerprint() != tl.Fingerprint() {
		t.Fatal("tlm fingerprint not stable across the JSON round trip")
	}
}

func TestFlagBinding(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.BindRun(fs)
	s.BindCache(fs)
	s.BindVerify(fs)
	s.BindStrict(fs)
	if err := fs.Parse([]string{
		"-exec", "tree", "-timeout", "2s", "-icache", "1024", "-dcache", "512",
		"-verify", "-Werror", "-strict", "-fallback", "7",
	}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Exec != "tree" || time.Duration(s.Timeout) != 2*time.Second ||
		s.ICache != 1024 || s.DCache != 512 ||
		!s.Verify || !s.Werror || !s.Strict || s.Fallback != 7 {
		t.Fatalf("flags not bound: %+v", s)
	}

	tlm := DefaultTLM()
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	tlm.BindWorkload(fs2)
	if err := fs2.Parse([]string{"-design", "SW+2", "-frames", "5", "-engine", "functional", "-calibrate=false"}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tlm.Design != "SW+2" || tlm.Frames != 5 || tlm.Engine != EngineFunctional || tlm.Calibrate {
		t.Fatalf("workload flags not bound: %+v", tlm)
	}

	// Unparsed flag sets keep the historical CLI defaults.
	def := Default()
	if def.ICache != 8192 || def.DCache != 4096 || def.Fallback != core.DefaultFallbackCycles ||
		def.Exec != "auto" || def.Model.Name != "microblaze" || def.Entry != "main" {
		t.Fatalf("unexpected defaults: %+v", def)
	}
}

func TestRunnerEstimate(t *testing.T) {
	var r Runner
	res, err := r.Run(context.Background(), estimateSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Kind != KindEstimate || res.Model != "microblaze" {
		t.Fatalf("result header: %+v", res)
	}
	if res.Summary == "" || len(res.Blocks) == 0 {
		t.Fatal("estimate result carries no summary or blocks")
	}
	var total float64
	for _, b := range res.Blocks {
		total += b.Total
	}
	if total <= 0 {
		t.Fatalf("no cycles estimated: %+v", res.Blocks)
	}
}

func TestRunnerEstimateProfile(t *testing.T) {
	s := estimateSpec()
	s.Profile = true
	var r Runner
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Profile) == 0 || !strings.Contains(string(res.Profile), "total") {
		t.Fatalf("profile report missing: %q", res.Profile)
	}
}

// A Go panic while a profiled estimate executes tenant code fails the job
// with a simulate-stage *diag.PanicError (exit 1, HTTP 500) instead of
// unwinding past the Runner and killing the process. Two huge local arrays
// make the compiled tier, which auto selects for a profiled run, panic
// sizing the frame.
func TestRunnerEstimateProfilePanicIsContained(t *testing.T) {
	s := estimateSpec()
	s.Source.Code = `int main(){int a[2000000000]; int b[2000000000]; a[1]=1; b[2]=2; return a[1]+b[2];}`
	s.Profile = true
	var r Runner
	_, err := r.Run(context.Background(), s)
	var pe *diag.PanicError
	if !errors.As(err, &pe) || pe.Stage != diag.StageSimulate {
		t.Fatalf("want a simulate-stage *diag.PanicError, got %v", err)
	}
}

func TestRunnerTLMFunctionalAndTimed(t *testing.T) {
	shared := core.NewCache()
	r := Runner{Cache: shared, Metrics: metrics.NewRegistry()}
	s := DefaultTLM()
	s.Frames = 1
	s.Calibrate = false
	s.Engine = EngineFunctional
	res, err := r.Run(context.Background(), &s)
	if err != nil {
		t.Fatalf("functional: %v", err)
	}
	if res.TLM == nil || res.TLM.Steps == 0 {
		t.Fatalf("functional result: %+v", res.TLM)
	}

	s.Engine = EngineTimed
	timed, err := r.Run(context.Background(), &s)
	if err != nil {
		t.Fatalf("timed: %v", err)
	}
	if timed.TLM.EndPs == 0 || timed.TLM.CyclesByPE["mb"] == 0 {
		t.Fatalf("timed result: %+v", timed.TLM)
	}
	// Functional and timed runs produce the same outputs.
	if len(timed.TLM.OutByPE["mb"]) != len(res.TLM.OutByPE["mb"]) {
		t.Fatal("functional and timed outputs differ in length")
	}
	// The shared cache saw the timed run's annotation.
	if st := shared.Stats(); st.SchedMisses == 0 {
		t.Fatalf("timed run bypassed the shared cache: %+v", st)
	}

	// A second identical timed run reuses every schedule.
	before := shared.Stats()
	again, err := r.Run(context.Background(), &s)
	if err != nil {
		t.Fatalf("timed again: %v", err)
	}
	after := shared.Stats()
	if after.SchedMisses != before.SchedMisses {
		t.Fatalf("identical job recompiled schedules: %+v -> %+v", before, after)
	}
	if again.TLM.CyclesByPE["mb"] != timed.TLM.CyclesByPE["mb"] {
		t.Fatal("identical jobs disagree on cycles")
	}
}

// TestRunnerVerifiesTLMDesignOnce: a verify:true TLM job verifies its
// design exactly once through the job's pipeline, whatever its engine
// (the board included) and whether it is profiled, on one PE or five, and
// a job without verify not at all.
func TestRunnerVerifiesTLMDesignOnce(t *testing.T) {
	var r Runner
	for _, engine := range []string{EngineFunctional, EngineTimed, EngineBoard} {
		for _, design := range []string{"SW", "SW+4"} {
			for _, profile := range []bool{false, true} {
				if profile && engine == EngineBoard {
					continue
				}
				for _, verify := range []bool{false, true} {
					s := DefaultTLM()
					s.Design, s.Frames, s.Calibrate, s.Engine, s.Profile, s.Verify = design, 1, false, engine, profile, verify
					var n atomic.Int32
					hook := func(stage diag.Stage, _ time.Duration) {
						if stage == diag.StageVerify {
							n.Add(1)
						}
					}
					if _, err := r.RunWith(context.Background(), &s, RunOpts{StageHook: hook}); err != nil {
						t.Fatalf("%s %s, profile %v, verify %v: %v", engine, design, profile, verify, err)
					}
					want := int32(0)
					if verify {
						want = 1
					}
					if got := n.Load(); got != want {
						t.Errorf("%s %s, profile %v, verify %v: %d verify stages, want %d", engine, design, profile, verify, got, want)
					}
				}
			}
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r Runner
	res, err := r.Run(ctx, estimateSpec())
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !diag.IsCancellation(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
}

// loopSrc never terminates: only a deadline ends its profiled execution.
const loopSrc = `int x; void main() { while (1) { x = x + 1; } }`

// TestRunnerTimeoutBoundsWholeJob checks that a job's timeout — the
// spec's own, else the Runner's default — bounds the profiled execution
// as well as the pipeline stages, a board job's functional pass and
// replay, and a calibration job's training runs.
func TestRunnerTimeoutBoundsWholeJob(t *testing.T) {
	loop := func() *Spec {
		s := estimateSpec()
		s.Source.Code = loopSrc
		s.Profile = true
		return s
	}
	board := func() *Spec {
		s := DefaultTLM()
		s.Engine, s.Frames, s.Calibrate = EngineBoard, 400, false
		return &s
	}
	calibrate := func() *Spec {
		s := DefaultCalibrate()
		return &s
	}
	for _, tc := range []struct {
		name    string
		r       *Runner
		spec    func() *Spec
		timeout time.Duration
	}{
		{"runner default", &Runner{DefaultTimeout: 200 * time.Millisecond}, loop, 0},
		{"spec timeout", &Runner{}, loop, 200 * time.Millisecond},
		{"board job", &Runner{}, board, 200 * time.Millisecond},
		// The merged calibration takes over 100 ms.
		{"calibrate job", &Runner{}, calibrate, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec()
			s.Timeout = Duration(tc.timeout)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			_, err := tc.r.Run(ctx, s)
			if !errors.Is(err, diag.ErrDeadline) {
				t.Fatalf("want diag.ErrDeadline, got %v", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("job returned after %v: its 200ms timeout did not bound it", el)
			}
		})
	}
}
