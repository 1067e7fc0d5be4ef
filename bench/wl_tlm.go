package main

import (
	"context"
	"fmt"
	"time"

	"ese/internal/core"
	"ese/internal/jobspec"
	"ese/internal/metrics"
)

// tlmLong is one closed-loop client running timed TLM jobs through one
// shared jobspec.Runner. A page is three jobs, each with its own workload
// seed: MP3 SW and SW+4 (the DE kernel and the bus, 5 PEs) and JPEG
// SW+DCT. Simulation dominates, and no two jobs of a run share source
// text, so a front-end memo should leave this workload unchanged.
type tlmLong struct{}

const (
	tlmPool = 512
	tlmTag  = 0x7E5A_0001
)

func (tlmLong) clients() int       { return 1 }
func (tlmLong) pool(sz sizing) int { return tlmPool }
func (tlmLong) memWork() int       { return 150 }

// tlmPage returns the jobs of one page.
func tlmPage(sz sizing, page int) []jobspec.Spec {
	shapes := []struct {
		app, design string
		frames      int
	}{
		{jobspec.AppMP3, "SW", sz.tlmFrames},
		{jobspec.AppMP3, "SW+4", sz.tlmFrames},
		{jobspec.AppJPEG, "SW+DCT", sz.tlmBlocks},
	}
	specs := make([]jobspec.Spec, len(shapes))
	for i, sh := range shapes {
		s := jobspec.DefaultTLM()
		s.App, s.Design, s.Frames = sh.app, sh.design, sh.frames
		s.Seed = inputSeed(tlmTag, page, i)
		specs[i] = s
	}
	return specs
}

type tlmInstance struct {
	sz      sizing
	runner  *jobspec.Runner
	reg     *metrics.Registry
	replays replayLog
}

func (tlmLong) setup(ctx context.Context, sz sizing, tr *tracer) (instance, error) {
	reg := metrics.NewRegistry()
	in := &tlmInstance{sz: sz, reg: reg, runner: &jobspec.Runner{Cache: core.NewCache(), Metrics: reg}}
	if err := warmBaseModel(in.runner, tr); err != nil {
		return nil, err
	}
	return in, nil
}

// warmBaseModel pays the runner's one-off board calibration (the memoized
// calibrated base model every TLM job starts from).
func warmBaseModel(r *jobspec.Runner, tr *tracer) error {
	s := jobspec.DefaultTLM()
	id := tr.begin("jobspec.base_model", 0, tr.newOp(), 0)
	defer tr.end(id)
	_, err := r.BaseModel(&s)
	return err
}

func (in *tlmInstance) page(ctx context.Context, client, page int, tr *tracer) pageResult {
	var r pageResult
	var ch chain
	for _, s := range tlmPage(in.sz, page) {
		s := s
		op := tr.newOp()
		r.ops++
		start := time.Now()
		res, err := runJob(ctx, in.runner, &s, tr, client, op, 0)
		r.lat = append(r.lat, ms(time.Since(start)))
		if err == nil {
			var d string
			if d, err = resultDigest(res); err == nil {
				ch.add(d)
			}
		}
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = fmt.Errorf("tlm_long page %d %s/%s: %w", page, s.App, s.Design, err)
			}
			continue
		}
		r.work++
		if tr != nil {
			in.replays.note(&s, client, op)
		}
	}
	if r.failed == 0 {
		r.digest = ch.sum()
	}
	return r
}

func (in *tlmInstance) counters(context.Context) (counters, error) {
	return snapshotCounters(in.reg.Snapshot(), in.runner.Cache.Stats()), nil
}

func (in *tlmInstance) layers(ctx context.Context, tr *tracer, w *window) (map[string]float64, error) {
	for _, it := range in.replays.take() {
		if err := replayFrontend(tr, it); err != nil {
			return nil, err
		}
	}
	m := jobLayers(tr, w)
	return m, nil
}

func (in *tlmInstance) trackName(int) string { return "client" }

func (in *tlmInstance) close() error { return nil }

// golden digests one page on the default tier and again with every job
// pinned to the compiled engine (the default picks the generated one).
func (in *tlmInstance) golden(ctx context.Context, page int) (string, error) {
	r := in.page(ctx, 0, page, nil)
	if r.err != nil {
		return "", r.err
	}
	var ch chain
	for _, s := range tlmPage(in.sz, page) {
		s.Exec = "compiled"
		res, err := in.runner.Run(ctx, &s)
		if err != nil {
			return "", err
		}
		d, err := resultDigest(res)
		if err != nil {
			return "", err
		}
		ch.add(d)
	}
	if d := ch.sum(); d != r.digest {
		return "", fmt.Errorf("tlm_long page %d: compiled engine digest %s, default %s", page, d, r.digest)
	}
	return r.digest, nil
}
