// Package jobspec defines the request-shaped description of one
// estimation, TLM or calibration job — the configuration surface that
// cmd/eseest, cmd/esetlm, cmd/esegen, cmd/esebench, cmd/esedse and the
// esed daemon all share. A Spec is the single source of truth: the CLIs
// bind their flags onto one, the daemon decodes one from a JSON request
// body, and both hand it to a Runner, which executes it through the one
// engine.Pipeline Runner.Pipeline builds for the job. A TLM spec has one
// executor, Runner.ExecTLM — esed and esedse reach it through RunWith,
// esetlm calls it and renders its outcome, and esetlm -graph and esegen
// take its design half (Runner.Design, Runner.Standalone) — and an
// estimate spec is annotated by Spec.Annotate, for eseest as for esed.
//
// A Spec is deliberately plain data (JSON-codable, no pointers into IR),
// so it can be validated, fingerprinted and coalesced: Fingerprint()
// hashes the canonical encoding, giving the daemon a content-addressed
// key under which concurrent identical jobs are collapsed into one
// execution.
package jobspec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"ese/internal/apps"
	"ese/internal/core"
	"ese/internal/engine"
	"ese/internal/interp"
	"ese/internal/pum"
)

// Job kinds.
const (
	// KindEstimate compiles a C-subset source and annotates it against
	// one PE model (the eseest flow).
	KindEstimate = "estimate"
	// KindTLM builds one of the built-in mapped designs and simulates
	// its transaction-level model (the esetlm flow).
	KindTLM = "tlm"
	// KindCalibrate fits the statistical memory and branch models on one
	// or more training programs and returns the calibrated PUM with its
	// per-config provenance (the internal/calib flow).
	KindCalibrate = "calibrate"
)

// TLM engines a KindTLM job may request.
const (
	EngineFunctional = "functional"
	EngineTimed      = "timed"
	EngineBoard      = "board"
)

// Applications a KindTLM job may target.
const (
	// AppMP3 is the MP3-like decoder corpus (designs SW, SW+1, SW+2, SW+4).
	AppMP3 = "mp3"
	// AppJPEG is the JPEG-like encoder corpus (designs SW, SW+DCT). Frames
	// counts 8x8 blocks for this app.
	AppJPEG = "jpeg"
)

// defaultSeed is an app's default workload seed (0 for an unknown app).
func defaultSeed(app string) uint32 {
	switch app {
	case AppMP3:
		return apps.DefaultMP3.Seed
	case AppJPEG:
		return apps.DefaultJPEG.Seed
	}
	return 0
}

// MaxFrames bounds a TLM job's workload: MP3 frames, or JPEG blocks. It
// sits well above any workload the tools run (CI's longest board job is
// 400 frames), and keeps a request from sizing an input the generator
// would build without checking the job's deadline.
const MaxFrames = 4096

// MaxBranchPenalty bounds a tuned misprediction penalty, in cycles. A
// penalty far beyond any real pipeline's would only wrap simulated time
// (sim.ErrTimeOverflow), so Validate rejects it as bad input.
const MaxBranchPenalty = 1000

// Tune is the structural design-space tuning of a TLM job's processor
// model: the DSE axes over the datapath and branch sub-models, applied to
// the (optionally calibrated) base model before cache retargeting. The
// zero value (and nil) mean "stock model".
type Tune struct {
	// Depth re-times the pipeline to this stage count (0 = keep).
	Depth int `json:"depth,omitempty"`
	// Issue sets the number of single-issue pipelines (0 = keep; >1 makes
	// an in-order model superscalar via the ASAP policy).
	Issue int `json:"issue,omitempty"`
	// FUs overrides functional-unit quantities by ID (absent = keep).
	FUs map[string]int `json:"fus,omitempty"`
	// BranchMiss overrides the branch misprediction ratio (nil = keep).
	BranchMiss *float64 `json:"branch_miss,omitempty"`
	// BranchPenalty overrides the misprediction penalty, in cycles up to
	// MaxBranchPenalty (nil = keep).
	BranchPenalty *float64 `json:"branch_penalty,omitempty"`
}

// isZero reports whether the tune changes nothing — such a Tune is
// canonicalized to nil so it cannot split a fingerprint.
func (t *Tune) isZero() bool {
	return t == nil || (t.Depth == 0 && t.Issue == 0 && len(t.FUs) == 0 &&
		t.BranchMiss == nil && t.BranchPenalty == nil)
}

// clone deep-copies the tune (nil stays nil).
func (t *Tune) clone() *Tune {
	if t == nil {
		return nil
	}
	c := *t
	if t.FUs != nil {
		c.FUs = make(map[string]int, len(t.FUs))
		for k, v := range t.FUs {
			c.FUs[k] = v
		}
	}
	if t.BranchMiss != nil {
		v := *t.BranchMiss
		c.BranchMiss = &v
	}
	if t.BranchPenalty != nil {
		v := *t.BranchPenalty
		c.BranchPenalty = &v
	}
	return &c
}

// validate checks the tune's ranges.
func (t *Tune) validate() error {
	if t == nil {
		return nil
	}
	if t.Depth != 0 && (t.Depth < 2 || t.Depth > 16) {
		return fmt.Errorf("jobspec: tune depth %d out of [2,16]", t.Depth)
	}
	if t.Issue != 0 && (t.Issue < 1 || t.Issue > 8) {
		return fmt.Errorf("jobspec: tune issue %d out of [1,8]", t.Issue)
	}
	for id, n := range t.FUs {
		if n < 1 {
			return fmt.Errorf("jobspec: tune FU %q quantity %d must be positive", id, n)
		}
	}
	if t.BranchMiss != nil && (*t.BranchMiss < 0 || *t.BranchMiss > 1 || *t.BranchMiss != *t.BranchMiss) {
		return fmt.Errorf("jobspec: tune branch miss rate %v out of [0,1]", *t.BranchMiss)
	}
	if t.BranchPenalty != nil && !(*t.BranchPenalty >= 0 && *t.BranchPenalty <= MaxBranchPenalty) {
		return fmt.Errorf("jobspec: tune branch penalty %v out of [0,%d]", *t.BranchPenalty, MaxBranchPenalty)
	}
	return nil
}

// Source is the program input of an estimation job: a C-subset source
// carried inline, plus the name used in diagnostics.
type Source struct {
	// Name labels the source in positions and diagnostics ("app.c").
	Name string `json:"name,omitempty"`
	// Code is the C-subset source text.
	Code string `json:"code,omitempty"`
}

// Model selects the PE model of an estimation job: a built-in name
// ("microblaze", "customhw", "dualissue") or an inline JSON PUM
// description (the retargeting interface).
type Model struct {
	Name string          `json:"name,omitempty"`
	JSON json.RawMessage `json:"json,omitempty"`
}

// Spec describes one job. The zero value is not valid; construct with
// Default() (or DefaultTLM()) and override, or decode from JSON and call
// Validate.
type Spec struct {
	// Kind is KindEstimate or KindTLM.
	Kind string `json:"kind"`

	// Source is the program of an estimation job.
	Source Source `json:"source,omitempty"`
	// Model is the PE model of an estimation job.
	Model Model `json:"model,omitempty"`

	// App names the application corpus of a TLM job: AppMP3 (default) or
	// AppJPEG.
	App string `json:"app,omitempty"`
	// Design names the built-in mapped design of a TLM job (mp3: SW, SW+1,
	// SW+2, SW+4; jpeg: SW, SW+DCT).
	Design string `json:"design,omitempty"`
	// Frames sizes the workload of a TLM job (MP3 frames, or 8x8 blocks
	// for the JPEG app), at most MaxFrames.
	Frames int `json:"frames,omitempty"`
	// Tune structurally varies the processor model of a TLM job (DSE axes
	// over pipeline depth, issue width, FU mix and the branch model).
	Tune *Tune `json:"tune,omitempty"`
	// Seed seeds the workload generator; zero selects the standard
	// evaluation seed.
	Seed uint32 `json:"seed,omitempty"`
	// Engine selects the TLM engine: functional, timed (default) or
	// board.
	Engine string `json:"engine,omitempty"`
	// Calibrate fits the statistical PUM models on the training workload
	// before building the design. Never omitted from the encoding: its
	// default is true, so an omitted false would be undone by the decoder's
	// defaults (and silently change the fingerprint).
	Calibrate bool `json:"calibrate"`
	// Train names the training set of a calibration job: one application
	// ("mp3", "jpeg") or several joined with "+" ("mp3+jpeg", the default;
	// the statistics are averaged across programs).
	Train string `json:"train,omitempty"`

	// ICache / DCache select the cache configuration in bytes (0 =
	// uncached).
	ICache int `json:"icache"`
	DCache int `json:"dcache"`

	// Exec selects the IR execution engine: auto (default), gen (the
	// pre-generated ahead-of-time tier), compiled or tree.
	Exec string `json:"exec,omitempty"`
	// Strict fails the job when the PE model does not map an op class
	// the program uses, instead of degrading to fallback latencies.
	Strict bool `json:"strict,omitempty"`
	// Fallback is the latency charged to unmapped op classes when not
	// strict; zero selects core.DefaultFallbackCycles.
	Fallback int `json:"fallback,omitempty"`
	// Verify statically verifies the IR / design and lints the PE models
	// before running.
	Verify bool `json:"verify,omitempty"`
	// Werror promotes verification warnings to failures.
	Werror bool `json:"werror,omitempty"`
	// Timeout is the one deadline of the whole job (0 = none; the daemon
	// may impose its own default). See WithTimeout.
	Timeout Duration `json:"timeout,omitempty"`
	// Workers bounds the annotation worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Profile additionally returns the ranked cycle-attribution profile
	// (estimation jobs, and TLM jobs on the functional or timed engine).
	Profile bool `json:"profile,omitempty"`
	// Top bounds the profile rows returned (0 = all).
	Top int `json:"top,omitempty"`
	// Entry names the entry function a profiled estimation job executes
	// (default main).
	Entry string `json:"entry,omitempty"`
	// Steps bounds the dynamic instruction count of a profiled estimation
	// job, or of each training run of a calibration job (0 = none).
	Steps uint64 `json:"steps,omitempty"`
}

// Default returns an estimation Spec carrying the front ends' shared
// flag defaults.
func Default() Spec {
	return Spec{
		Kind:     KindEstimate,
		Model:    Model{Name: "microblaze"},
		ICache:   8192,
		DCache:   4096,
		Exec:     "auto",
		Fallback: core.DefaultFallbackCycles,
		Entry:    "main",
		Top:      20,
	}
}

// DefaultTLM returns a TLM Spec carrying esetlm's flag defaults.
func DefaultTLM() Spec {
	s := Default()
	s.Kind = KindTLM
	s.App = AppMP3
	s.Design = "SW"
	s.Frames = 2
	s.Engine = EngineTimed
	s.Calibrate = true
	s.Model = Model{}
	return s
}

// DefaultTrain is the training set a calibration job uses when none is
// named: both example applications, merged.
const DefaultTrain = AppMP3 + "+" + AppJPEG

// DefaultCalibrate returns a calibration Spec with the standard training
// set.
func DefaultCalibrate() Spec {
	s := Default()
	s.Kind = KindCalibrate
	s.Model = Model{}
	s.Train = DefaultTrain
	return s
}

// ValidateTrain checks a calibration training-set label: "+"-joined
// application names, each known and none repeated.
func ValidateTrain(label string) error {
	if label == "" {
		return fmt.Errorf("jobspec: empty training set")
	}
	seen := make(map[string]bool)
	for _, name := range strings.Split(label, "+") {
		if name != AppMP3 && name != AppJPEG {
			return fmt.Errorf("jobspec: unknown training app %q in %q (want %s or %s)",
				name, label, AppMP3, AppJPEG)
		}
		if seen[name] {
			return fmt.Errorf("jobspec: training app %q repeated in %q", name, label)
		}
		seen[name] = true
	}
	return nil
}

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s"), matching the CLI flag syntax, and also accepts plain
// nanosecond numbers on decode.
type Duration time.Duration

// MarshalJSON renders the duration as its flag-syntax string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobspec: bad timeout %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("jobspec: timeout must be a duration string or nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// Validate checks the spec for structural problems a front end should
// reject before any work is spent on it.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindEstimate:
		if s.Source.Code == "" {
			return fmt.Errorf("jobspec: estimate job carries no source code")
		}
		if s.Model.Name == "" && len(s.Model.JSON) == 0 {
			return fmt.Errorf("jobspec: estimate job names no PE model")
		}
		if len(s.Model.JSON) == 0 {
			if _, err := builtinModel(s.Model.Name); err != nil {
				return err
			}
		}
	case KindTLM:
		app := s.App
		if app == "" {
			app = AppMP3
		}
		designs := apps.DesignNames(app)
		if designs == nil {
			return fmt.Errorf("jobspec: unknown app %q (want %s or %s)", s.App, AppMP3, AppJPEG)
		}
		if !slices.Contains(designs, s.Design) {
			return fmt.Errorf("jobspec: unknown design %q for app %s (want %s)",
				s.Design, app, strings.Join(designs, ", "))
		}
		if s.Frames < 1 || s.Frames > MaxFrames {
			return fmt.Errorf("jobspec: tlm job needs frames in [1,%d], got %d", MaxFrames, s.Frames)
		}
		switch s.Engine {
		case EngineFunctional, EngineTimed, EngineBoard:
		default:
			return fmt.Errorf("jobspec: unknown engine %q (want functional, timed or board)", s.Engine)
		}
		if s.Profile && s.Engine == EngineBoard {
			return fmt.Errorf("jobspec: the board engine has no cycle-attribution profile (want functional or timed)")
		}
		if err := s.Tune.validate(); err != nil {
			return err
		}
	case KindCalibrate:
		train := s.Train
		if train == "" {
			train = DefaultTrain
		}
		if err := ValidateTrain(train); err != nil {
			return err
		}
	default:
		return fmt.Errorf("jobspec: unknown job kind %q (want %s, %s or %s)", s.Kind, KindEstimate, KindTLM, KindCalibrate)
	}
	if s.ICache < 0 || s.DCache < 0 {
		return fmt.Errorf("jobspec: negative cache size %d/%d", s.ICache, s.DCache)
	}
	if s.Frames < 0 {
		return fmt.Errorf("jobspec: negative frame count %d", s.Frames)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("jobspec: negative timeout %v", time.Duration(s.Timeout))
	}
	if _, err := interp.ParseEngineKind(s.Exec); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	if len(s.Model.JSON) > 0 {
		if _, err := pum.FromJSON(s.Model.JSON); err != nil {
			return fmt.Errorf("jobspec: inline PUM: %w", err)
		}
	}
	return nil
}

// ParseJSON decodes and validates a Spec from a JSON request body.
// Unknown fields are rejected, so a typoed option fails loudly instead of
// silently running with defaults.
func ParseJSON(data []byte) (*Spec, error) {
	s := Default()
	// The kind steers the defaults, so peek at it first.
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	switch probe.Kind {
	case KindTLM:
		s = DefaultTLM()
	case KindCalibrate:
		s = DefaultCalibrate()
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeJSON renders the spec canonically (stable field order from the
// struct definition).
func (s *Spec) EncodeJSON() ([]byte, error) {
	return json.Marshal(s)
}

// Normalized returns a copy of the spec canonicalized to resolved
// defaults: fields left at their "pick the default" zero value are
// rewritten to the value the Runner would actually use, and fields the
// job's kind never reads are cleared. Two specs describing the same job —
// one spelling a default out, one relying on the kind-probed defaults —
// normalize identically, which is what makes Fingerprint a usable
// coalescing and cache key. Presentation options that shape the response
// (Top) are deliberately kept.
func (s *Spec) Normalized() Spec {
	n := *s
	n.Tune = n.Tune.clone()
	if n.Exec == "" {
		n.Exec = "auto"
	}
	if n.Fallback < 1 {
		n.Fallback = core.DefaultFallbackCycles
	}
	switch n.Kind {
	case KindEstimate:
		if n.Source.Name == "" {
			n.Source.Name = "job.c"
		}
		// Entry/Steps steer only profiled runs.
		if n.Profile {
			if n.Entry == "" {
				n.Entry = "main"
			}
		} else {
			n.Entry, n.Steps = "", 0
		}
		// TLM-only fields are inert on an estimation job.
		n.App, n.Design, n.Engine = "", "", ""
		n.Frames, n.Seed = 0, 0
		n.Calibrate = false
		n.Tune = nil
		n.Train = ""
	case KindTLM:
		if n.App == "" {
			n.App = AppMP3
		}
		if n.Engine == "" {
			n.Engine = EngineTimed
		}
		if n.Seed == 0 {
			n.Seed = defaultSeed(n.App)
		}
		if n.Tune.isZero() {
			n.Tune = nil
		}
		// Estimation-only fields are inert on a TLM job.
		n.Source, n.Model = Source{}, Model{}
		n.Entry, n.Steps = "", 0
		n.Train = ""
	case KindCalibrate:
		if n.Train == "" {
			n.Train = DefaultTrain
		}
		// Only the training set and the step bound shape a calibration job.
		n.Source, n.Model = Source{}, Model{}
		n.App, n.Design, n.Engine, n.Entry = "", "", "", ""
		n.Frames, n.Seed = 0, 0
		n.Calibrate = false
		n.Tune = nil
		n.ICache, n.DCache = 0, 0
		n.Profile, n.Top = false, 0
	}
	return n
}

// Fingerprint returns the sha256 hex digest of the normalized spec's
// canonical encoding — the content-addressed identity under which the
// daemon coalesces concurrent identical jobs and the DSE runner verifies
// resumed sweep points. Normalization (see Normalized) guarantees that a
// spec spelling out a default and one relying on kind-probed defaults
// hash identically; options that change the response (including
// presentation ones like Top) still hash apart.
func (s *Spec) Fingerprint() string {
	n := s.Normalized()
	data, err := json.Marshal(&n)
	if err != nil {
		// Spec is plain data; Marshal can only fail on exotic corruption.
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Options maps the spec onto pipeline options. The caller owns cache and
// metrics injection; everything request-shaped comes from the spec.
func (s *Spec) Options() (engine.Options, error) {
	kind, err := interp.ParseEngineKind(s.Exec)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{
		Workers:        s.Workers,
		Strict:         s.Strict,
		FallbackCycles: s.Fallback,
		Engine:         kind,
		Verify:         s.Verify,
		Werror:         s.Werror,
	}, nil
}

// WithTimeout derives a run's one deadline from parent: the spec's
// Timeout, else fallback; zero means none. Every command and the Runner
// bound everything a run does with the returned context.
func (s *Spec) WithTimeout(parent context.Context, fallback time.Duration) (context.Context, context.CancelFunc) {
	timeout := time.Duration(s.Timeout)
	if timeout == 0 {
		timeout = fallback
	}
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return parent, func() {}
}

// replays reports whether the spec's TLM job may record and replay its
// workload's timed model (tlm.Recording): a timed, unprofiled job whose
// exec is auto. A job naming gen, compiled or tree runs that tier.
func (s *Spec) replays() bool {
	kind, err := s.ExecKind()
	return s.Engine == EngineTimed && !s.Profile && err == nil && kind == interp.EngineAuto
}

// ExecKind parses the spec's IR execution engine selection.
func (s *Spec) ExecKind() (interp.EngineKind, error) {
	return interp.ParseEngineKind(s.Exec)
}
