package calib

import (
	"context"
	"fmt"
	"sync"

	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/cli"
	"ese/internal/diag"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtl"
	"ese/internal/tlm"
)

// Workload is the normalized identity of an evaluation program: the
// application ("mp3" or "jpeg"), its design, its size (MP3 frames or JPEG
// blocks) and the seed of its input. The four fields fully determine the
// program, which is what lets a Memo share it.
type Workload struct {
	App, Design string
	Size        int
	Seed        uint32
}

// String names the workload in messages: app/design.
func (w Workload) String() string { return w.App + "/" + w.Design }

// Memo is the workload memo of the estimation flows: a jobspec Runner, a
// scoreboard and an experiments Setup each own one. It holds the two base
// processor models (Model) and, per workload, one Entry. Beyond memoLimit
// workloads the entries are dropped wholesale, like interp's compile
// cache.
//
// Every fill is single-flight: one caller compiles, calibrates, runs the
// board pass or records, and concurrent callers of the same value wait for
// it, each under its own context, then count as hits. A fill that fails,
// its context's end included, memoizes nothing, so a waiter then fills the
// value itself. Memoized values are read-only and shared. The zero Memo is
// empty, and its board passes run without a step limit.
type Memo struct {
	limit uint64 // bounds each board pass's steps (0 = none)

	mu                  sync.Mutex // guards every slot and entries
	nominal, calibrated slot[*pum.PUM]
	entries             map[Workload]*slot[*Entry]
}

const memoLimit = 64

// Entry is one workload's program, its board end cycles at the bus clock
// per cache configuration, and the recording of its timed TLM. The
// recording keys blocks of the program and the board ran the program, so
// both live and die with the entry.
type Entry struct {
	m    *Memo
	w    Workload
	prog *cdfg.Program
	ends map[pum.CacheCfg]*slot[uint64]
	rec  slot[*tlm.Recording]
}

// slot is one memoized value: ok once a fill succeeded, busy open while
// one runs. The memo's mu guards it.
type slot[T any] struct {
	val  T
	ok   bool
	busy chan struct{}
}

// claim starts the caller's fill of s (own) unless s is memoized or busy
// with another fill, which it returns.
func (s *slot[T]) claim() (own bool, busy chan struct{}) {
	if s.ok || s.busy != nil {
		return false, s.busy
	}
	s.busy = make(chan struct{})
	return true, nil
}

// settle ends the caller's fill of s, memoizing val unless err is set.
func (s *slot[T]) settle(val T, err error) {
	if err == nil {
		s.val, s.ok = val, true
	}
	close(s.busy)
	s.busy = nil
}

// get returns s's value, filled by fill, which runs without mu, when s
// holds none; filled reports that this caller ran fill.
func get[T any](ctx context.Context, mu *sync.Mutex, s *slot[T], fill func() (T, error)) (val T, filled bool, err error) {
	for {
		mu.Lock()
		own, busy := s.claim()
		val = s.val
		mu.Unlock()
		if own {
			val, err = fill()
			mu.Lock()
			s.settle(val, err)
			mu.Unlock()
			return val, true, err
		}
		if busy == nil {
			return val, false, nil
		}
		if err := diag.Wait(ctx, busy); err != nil {
			var zero T
			return zero, false, err
		}
	}
}

// Model returns the MicroBlaze-like base processor model: the datasheet
// model, or, when calibrated, that model calibrated under ctx on the MP3
// training program over the standard cache configurations.
func (m *Memo) Model(ctx context.Context, calibrated bool) (*pum.PUM, error) {
	s := &m.nominal
	if calibrated {
		s = &m.calibrated
	}
	model, _, err := get(ctx, &m.mu, s, func() (*pum.PUM, error) {
		if !calibrated {
			return pum.MicroBlaze(), nil
		}
		ts, err := Trainings("mp3")
		if err != nil {
			return nil, err
		}
		mb, _, err := CalibrateCtx(ctx, pum.MicroBlaze(), ts, pum.StandardCacheConfigs, 0)
		return mb, err
	})
	return model, err
}

// Entry returns the workload's entry, compiling its program on the
// workload's first request: its input data bound to the design's compiled
// template (apps.CompileMP3, apps.CompileJPEG), which runs no front end.
// hit reports that this caller did not compile.
func (m *Memo) Entry(ctx context.Context, w Workload) (e *Entry, hit bool, err error) {
	m.mu.Lock()
	s := m.entries[w]
	if s == nil {
		if m.entries == nil || len(m.entries) >= memoLimit {
			m.entries = make(map[Workload]*slot[*Entry])
		}
		s = &slot[*Entry]{}
		m.entries[w] = s
	}
	m.mu.Unlock()
	e, filled, err := get(ctx, &m.mu, s, func() (*Entry, error) {
		var prog *cdfg.Program
		var err error
		switch w.App {
		case "mp3":
			prog, err = apps.CompileMP3(w.Design, apps.MP3Config{Frames: w.Size, Seed: w.Seed})
		case "jpeg":
			prog, err = apps.CompileJPEG(w.Design, apps.JPEGConfig{Blocks: w.Size, Seed: w.Seed})
		default:
			err = cli.Input(fmt.Errorf("calib: unknown application %q", w.App))
		}
		return &Entry{m: m, w: w, prog: prog, ends: make(map[pum.CacheCfg]*slot[uint64])}, err
	})
	return e, !filled, err
}

// Design maps the entry's program onto its workload's design under model
// at cache configuration cc (apps.MapMP3, apps.MapJPEG). No consumer of a
// design modifies its program or model.
func (e *Entry) Design(model *pum.PUM, cc pum.CacheCfg) (*platform.Design, error) {
	if e.w.App == "jpeg" {
		return apps.MapJPEG(e.w.Design, e.prog, model, cc)
	}
	return apps.MapMP3(e.w.Design, e.prog, model, cc)
}

// Refs returns the workload's end cycles on the cycle-accurate board at
// each of cfgs. Board runs depend only on the design and the datasheet
// constants, never on calibrated statistics, so one reference serves
// every model. The configurations no caller has simulated yet run
// together, in one functional pass of the board (rtl.RunBoards) bounded by
// ctx.
func (e *Entry) Refs(ctx context.Context, cfgs []pum.CacheCfg) ([]uint64, error) {
	refs := make([]uint64, len(cfgs))
	for {
		var run []pum.CacheCfg
		var busy chan struct{}
		e.m.mu.Lock()
		for i, cc := range cfgs {
			s := e.ends[cc]
			if s == nil {
				s = &slot[uint64]{}
				e.ends[cc] = s
			}
			if own, b := s.claim(); own {
				run = append(run, cc)
			} else if b != nil {
				busy = b
			}
			refs[i] = s.val
		}
		e.m.mu.Unlock()
		var err error
		switch {
		case len(run) > 0:
			err = e.board(ctx, run)
		case busy != nil:
			err = diag.Wait(ctx, busy)
		default:
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// board runs the board pass of the configurations of run, whose slots the
// caller claimed, mapped under the base datasheet (boardModel), and
// settles them.
func (e *Entry) board(ctx context.Context, run []pum.CacheCfg) error {
	ref := boardModel(pum.MicroBlaze(), run)
	ds := make([]*platform.Design, len(run))
	var brs []*rtl.BoardResult
	var err error
	for i := 0; i < len(run) && err == nil; i++ {
		ds[i], err = e.Design(ref, run[i])
	}
	if err == nil {
		brs, err = rtl.RunBoards(ctx, ds, e.m.limit)
	}
	if err != nil {
		err = fmt.Errorf("calib: board %s at %v: %w", e.w, run, err)
	}
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	for i, cc := range run {
		var end uint64
		if err == nil {
			end = brs[i].EndCycles(ds[i].Bus.ClockHz)
		}
		e.ends[cc].settle(end, err)
	}
	return err
}

// Recording returns the workload's timed-TLM recording, made on the first
// request by record: one timed TLM run of a design of the workload into
// the empty recording it is handed (tlm.Options.Recording). recorded
// reports that this caller ran record. A run that does not record leaves
// the workload without a recording (nil), and its timed runs simulate.
func (e *Entry) Recording(ctx context.Context, record func(*tlm.Recording) error) (rec *tlm.Recording, recorded bool, err error) {
	return get(ctx, &e.m.mu, &e.rec, func() (*tlm.Recording, error) {
		rec := &tlm.Recording{}
		if err := record(rec); err != nil || !rec.Filled() {
			return nil, err
		}
		return rec, nil
	})
}
