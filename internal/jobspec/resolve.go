package jobspec

import (
	"fmt"
	"os"

	"ese/internal/apps"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/platform"
	"ese/internal/pum"
)

// ResolveModel materializes the spec's PE model: inline JSON wins, then
// the built-in model names. It does not touch the filesystem — the
// daemon-safe path. The returned model does not yet carry the spec's
// cache configuration; ApplyCache does that.
func (s *Spec) ResolveModel() (*pum.PUM, error) {
	if len(s.Model.JSON) > 0 {
		return pum.FromJSON(s.Model.JSON)
	}
	switch s.Model.Name {
	case "microblaze":
		return pum.MicroBlaze(), nil
	case "customhw":
		return pum.CustomHW("customhw", 100_000_000), nil
	case "dualissue":
		return pum.DualIssue(), nil
	case "":
		return nil, fmt.Errorf("jobspec: no PE model selected")
	}
	return nil, fmt.Errorf("jobspec: unknown PE model %q (want microblaze, customhw, dualissue or inline JSON)", s.Model.Name)
}

// LoadModelArg resolves a CLI -pum argument into the spec: built-in names
// stay names; anything else is read as a JSON PUM file and inlined, so the
// spec stays self-contained (and fingerprints on the file's content, not
// its path).
func (s *Spec) LoadModelArg(arg string) error {
	switch arg {
	case "microblaze", "customhw", "dualissue":
		s.Model = Model{Name: arg}
		return nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return err
	}
	if _, err := pum.FromJSON(data); err != nil {
		return err
	}
	s.Model = Model{JSON: data}
	return nil
}

// ApplyCache folds the spec's cache configuration into the model, under
// the front ends' shared convention: models that already carry cache
// statistics get retargeted to the requested sizes, and an explicit
// -icache 0 forces the uncached configuration even on models without
// calibration tables.
func (s *Spec) ApplyCache(model *pum.PUM) (*pum.PUM, error) {
	if model.Mem.HasICache || model.Mem.HasDCache || s.ICache == 0 {
		return model.WithCache(pum.CacheCfg{ISize: s.ICache, DSize: s.DCache})
	}
	return model, nil
}

// BaseModel materializes a TLM job's base processor model: the
// MicroBlaze-like soft core, calibrated on the MP3 training program when
// the spec asks for it. The result depends only on s.Calibrate — the
// training program is fixed — which is what lets the Runner and the DSE
// sweep driver memoize it across thousands of jobs.
func (s *Spec) BaseModel() (*pum.PUM, error) {
	mb := pum.MicroBlaze()
	if !s.Calibrate {
		return mb, nil
	}
	ts, err := calib.Trainings(AppMP3)
	if err != nil {
		return nil, err
	}
	model, _, err := calib.Calibrate(mb, ts, pum.StandardCacheConfigs, 0)
	return model, err
}

// BuildDesign materializes a TLM job's mapped platform: the (optionally
// calibrated, optionally tuned) processor model plus the named design of
// the spec's app under the spec's cache configuration, on a freshly
// compiled program.
func (s *Spec) BuildDesign() (*platform.Design, error) {
	base, err := s.BaseModel()
	if err != nil {
		return nil, err
	}
	prog, err := s.workload().compile()
	if err != nil {
		return nil, err
	}
	return s.BuildDesignFrom(base, prog)
}

// BuildDesignFrom is BuildDesign with the base processor model and the
// compiled program supplied by the caller (typically memoized across jobs
// — calibration and building the program cost far more than mapping).
// prog must be the spec's workload program; neither it nor the base model
// is mutated: tuning and cache retargeting operate on clones.
func (s *Spec) BuildDesignFrom(base *pum.PUM, prog *cdfg.Program) (*platform.Design, error) {
	mb := base
	if t := s.Tune; !t.isZero() {
		var err error
		mb, err = base.WithDatapath(t.Depth, t.Issue, t.FUs)
		if err != nil {
			return nil, fmt.Errorf("jobspec: tune: %w", err)
		}
		if t.BranchMiss != nil {
			mb.Branch.MissRate = *t.BranchMiss
		}
		if t.BranchPenalty != nil {
			mb.Branch.Penalty = *t.BranchPenalty
		}
	}
	cacheCfg := pum.CacheCfg{ISize: s.ICache, DSize: s.DCache}
	switch s.workload().app {
	case AppMP3:
		return apps.MapMP3(s.Design, prog, mb, cacheCfg)
	case AppJPEG:
		return apps.MapJPEG(s.Design, prog, mb, cacheCfg)
	}
	return nil, fmt.Errorf("jobspec: unknown app %q", s.App)
}

// workload is the normalized identity of a TLM job's program. The four
// fields fully determine the program, which is what lets the Runner
// memoize programs under it.
type workload struct {
	app, design string
	frames      int
	seed        uint32
}

// workload returns the spec's normalized workload identity: app and seed
// resolved to their defaults, as Normalized does.
func (s *Spec) workload() workload {
	w := workload{app: s.App, design: s.Design, frames: s.Frames, seed: s.Seed}
	if w.app == "" {
		w.app = AppMP3
	}
	if w.seed == 0 {
		w.seed = defaultSeed(w.app)
	}
	return w
}

// compile builds the workload's program: its input data bound to the
// design's compiled template.
func (w workload) compile() (*cdfg.Program, error) {
	switch w.app {
	case AppMP3:
		return apps.CompileMP3(w.design, apps.MP3Config{Frames: w.frames, Seed: w.seed})
	case AppJPEG:
		return apps.CompileJPEG(w.design, apps.JPEGConfig{Blocks: w.frames, Seed: w.seed})
	}
	return nil, fmt.Errorf("jobspec: unknown app %q", w.app)
}
