package iss

import (
	"context"

	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/diag"
)

// TimingConfig is the ISS's interpretation of the target's timing. The
// paper observes that the vendor MicroBlaze ISS "did not model memory
// access accurately enough", making it *less* accurate than the timed TLM
// (Table 2). This config reproduces that: the ISS charges its own latency
// constants, which by default disagree with the board (optimistic uncached
// latency, pessimistic miss penalty, undersized direct-mapped caches), so
// the ISS underestimates the uncached design and overestimates the heavily
// cached ones — the error shape of the paper.
type TimingConfig struct {
	MulCycles  int
	DivCycles  int
	CallCycles int

	UncachedLatency uint64 // per access when the cache is absent
	MissPenalty     uint64 // per modeled cache miss
	ICache          cache.Config
	DCache          cache.Config
}

// DefaultTiming returns the coarse ISS timing for the given real cache
// sizes: the modeled caches are direct-mapped with short lines regardless
// of the board's true organization.
func DefaultTiming(iSize, dSize int) TimingConfig {
	return TimingConfig{
		MulCycles:       3,
		DivCycles:       32,
		CallCycles:      2,
		UncachedLatency: 4,  // optimistic vs the board's 8
		MissPenalty:     12, // pessimistic vs the board's 8
		ICache:          cache.Config{Size: iSize, LineBytes: 8, Assoc: 1},
		DCache:          cache.Config{Size: dSize, LineBytes: 8, Assoc: 1},
	}
}

// ISS is the interpreted instruction-set simulator baseline: it steps the
// functional machine one instruction at a time and accrues cycles per
// instruction — the slow, interpreted dynamic estimation approach the
// paper compares against.
type ISS struct {
	M      *Machine
	Cfg    TimingConfig
	ICache *cache.Cache
	DCache *cache.Cache
	Cycles uint64
	trace  Trace
}

// NewISS wraps a machine with the timing model.
func NewISS(m *Machine, cfg TimingConfig) *ISS {
	return &ISS{
		M:      m,
		Cfg:    cfg,
		ICache: cache.New(cfg.ICache),
		DCache: cache.New(cfg.DCache),
	}
}

// StepTimed executes one instruction and accrues its estimated cycles.
func (s *ISS) StepTimed() error {
	t := &s.trace
	if err := s.M.Step(t); err != nil {
		return err
	}
	if !t.Executed {
		return nil
	}
	// Base cost per operation class.
	c := uint64(1)
	switch t.Class {
	case cdfg.ClassMul:
		c = uint64(s.Cfg.MulCycles)
	case cdfg.ClassDiv:
		c = uint64(s.Cfg.DivCycles)
	case cdfg.ClassCall:
		c = uint64(s.Cfg.CallCycles)
	}
	// Instruction fetch through the modeled i-cache.
	if s.ICache.Enabled() {
		if !s.ICache.Access(PCAddr(t.PC)) {
			c += s.Cfg.MissPenalty
		}
	} else {
		c += s.Cfg.UncachedLatency
	}
	// Data operands through the modeled d-cache.
	for _, a := range t.DAddrs {
		if s.DCache.Enabled() {
			if !s.DCache.Access(a) {
				c += s.Cfg.MissPenalty
			}
		} else {
			c += s.Cfg.UncachedLatency
		}
	}
	s.Cycles += c
	return nil
}

// ctxCheckSteps is how many instructions Run executes between context
// checks, as the board's instruction loop does.
const ctxCheckSteps = 4096

// Run interprets until the program completes (limit 0 = unbounded) or ctx
// ends, which it polls every ctxCheckSteps instructions.
func (s *ISS) Run(ctx context.Context, limit uint64) error {
	countdown := ctxCheckSteps
	for !s.M.Done() {
		if err := s.StepTimed(); err != nil {
			return err
		}
		if limit != 0 && s.M.Steps > limit {
			return errLimit
		}
		if countdown--; countdown == 0 {
			countdown = ctxCheckSteps
			if err := diag.FromContext(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

var errLimit = errLimitType{}

type errLimitType struct{}

func (errLimitType) Error() string { return "iss: step limit exceeded" }
