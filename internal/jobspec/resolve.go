package jobspec

import (
	"context"
	"fmt"
	"os"
	"strings"

	"ese/internal/annotate"
	"ese/internal/calib"
	"ese/internal/cdfg"
	"ese/internal/engine"
	"ese/internal/platform"
	"ese/internal/pum"
)

// model materializes an estimation job's PE model — inline JSON wins,
// then the built-in model names — and folds in the spec's cache
// configuration under the front ends' shared convention: models that
// already carry cache statistics get retargeted to the requested sizes,
// and an explicit -icache 0 forces the uncached configuration even on
// models without calibration tables. It does not touch the filesystem —
// the daemon-safe path.
func (s *Spec) model() (*pum.PUM, error) {
	var m *pum.PUM
	switch {
	case len(s.Model.JSON) > 0:
		var err error
		if m, err = pum.FromJSON(s.Model.JSON); err != nil {
			return nil, err
		}
	case s.Model.Name == "":
		return nil, fmt.Errorf("jobspec: no PE model selected")
	default:
		build, err := builtinModel(s.Model.Name)
		if err != nil {
			return nil, err
		}
		m = build()
	}
	if m.Mem.HasICache || m.Mem.HasDCache || s.ICache == 0 {
		return m.WithCache(pum.CacheCfg{ISize: s.ICache, DSize: s.DCache})
	}
	return m, nil
}

// builtinModels are the PE models a spec can name, in the order messages
// list them: model builds them, and Validate and LoadModelArg accept
// exactly their names.
var builtinModels = []struct {
	name  string
	build func() *pum.PUM
}{
	{"microblaze", pum.MicroBlaze},
	{"customhw", func() *pum.PUM { return pum.CustomHW("customhw", 100_000_000) }},
	{"dualissue", pum.DualIssue},
}

// builtinModel returns the constructor of the named built-in PE model.
func builtinModel(name string) (func() *pum.PUM, error) {
	for _, b := range builtinModels {
		if b.name == name {
			return b.build, nil
		}
	}
	names := make([]string, len(builtinModels))
	for i, b := range builtinModels {
		names[i] = b.name
	}
	return nil, fmt.Errorf("jobspec: unknown PE model %q (want %s or inline JSON)", name, strings.Join(names, ", "))
}

// Annotate is the estimation step of every estimate front end (esed's
// jobs and eseest): the spec's PE model (see model) annotated against prog
// through pl. The model is returned even when annotation fails.
func (s *Spec) Annotate(ctx context.Context, pl *engine.Pipeline, prog *cdfg.Program) (*pum.PUM, *annotate.Annotated, error) {
	m, err := s.model()
	if err != nil {
		return nil, nil, err
	}
	a, err := pl.AnnotateCtx(ctx, prog, m)
	return m, a, err
}

// LoadModelArg resolves a CLI -pum argument into the spec: built-in names
// stay names; anything else is read as a JSON PUM file and inlined, so the
// spec stays self-contained (and fingerprints on the file's content, not
// its path).
func (s *Spec) LoadModelArg(arg string) error {
	if _, err := builtinModel(arg); err == nil {
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

// mapDesign maps a TLM job's platform: the base processor model, tuned
// by the spec, and the named design of the spec's app under the spec's
// cache configuration, on e's program, the spec's workload program.
// Neither the program nor the base model is mutated: tuning and cache
// retargeting operate on clones.
func (s *Spec) mapDesign(base *pum.PUM, e *calib.Entry) (*platform.Design, error) {
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
	return e.Design(mb, pum.CacheCfg{ISize: s.ICache, DSize: s.DCache})
}

// workload returns the spec's normalized workload identity, which fully
// determines its program: app and seed resolved to their defaults, as
// Normalized does.
func (s *Spec) workload() calib.Workload {
	w := calib.Workload{App: s.App, Design: s.Design, Size: s.Frames, Seed: s.Seed}
	if w.App == "" {
		w.App = AppMP3
	}
	if w.Seed == 0 {
		w.Seed = defaultSeed(w.App)
	}
	return w
}
