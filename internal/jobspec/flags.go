package jobspec

import (
	"flag"
	"time"
)

// The Bind* helpers register the flag groups the CLI front ends share,
// each writing straight into the Spec's fields. Groups are split by which
// commands need them: eseest binds cache+strict+verify+run+profile (its
// -pum argument goes through LoadModelArg), esetlm binds
// workload+cache+verify+run, esegen workload+cache, esebench run only. Defaults come
// from the Spec the flags are bound onto, so Default()/DefaultTLM() keep
// every front end's historical defaults in one place.

// BindRun registers the execution flags every command shares: -exec and
// -timeout.
func (s *Spec) BindRun(fs *flag.FlagSet) {
	fs.StringVar(&s.Exec, "exec", s.Exec, "IR execution engine: auto | gen | compiled | tree")
	fs.DurationVar((*time.Duration)(&s.Timeout), "timeout", time.Duration(s.Timeout),
		"one deadline for the whole run (0 = none)")
}

// BindCache registers -icache/-dcache.
func (s *Spec) BindCache(fs *flag.FlagSet) {
	fs.IntVar(&s.ICache, "icache", s.ICache, "i-cache size in bytes (0 = uncached)")
	fs.IntVar(&s.DCache, "dcache", s.DCache, "d-cache size in bytes (0 = uncached)")
}

// BindVerify registers -verify/-Werror.
func (s *Spec) BindVerify(fs *flag.FlagSet) {
	fs.BoolVar(&s.Verify, "verify", s.Verify, "statically verify the IR and lint the PE model")
	fs.BoolVar(&s.Werror, "Werror", s.Werror, "treat verification warnings as errors (implies nothing without -verify)")
}

// BindStrict registers eseest's -strict/-fallback degradation policy.
func (s *Spec) BindStrict(fs *flag.FlagSet) {
	fs.BoolVar(&s.Strict, "strict", s.Strict, "reject PE models that do not map every op class used")
	fs.IntVar(&s.Fallback, "fallback", s.Fallback, "fallback cycles for unmapped op classes")
}

// BindProfile registers eseest's profiled-execution flags: -entry, -top
// and -steps.
func (s *Spec) BindProfile(fs *flag.FlagSet) {
	fs.StringVar(&s.Entry, "entry", s.Entry, "entry function for -profile and -emit-go")
	fs.IntVar(&s.Top, "top", s.Top, "rows shown by -profile (0 = all)")
	fs.Uint64Var(&s.Steps, "steps", s.Steps, "dynamic step limit for -profile (0 = none)")
}

// BindWorkload registers esetlm's workload flags: -app, -design, -frames,
// -engine and -calibrate.
func (s *Spec) BindWorkload(fs *flag.FlagSet) {
	fs.StringVar(&s.App, "app", s.App, "application: mp3 | jpeg")
	fs.StringVar(&s.Design, "design", s.Design, "design name (mp3: SW, SW+1, SW+2, SW+4; jpeg: SW, SW+DCT)")
	fs.IntVar(&s.Frames, "frames", s.Frames, "workload size (MP3 frames, or 8x8 blocks for jpeg)")
	fs.StringVar(&s.Engine, "engine", s.Engine, "functional | timed | board")
	fs.BoolVar(&s.Calibrate, "calibrate", s.Calibrate, "calibrate the PUM on the training workload")
}
