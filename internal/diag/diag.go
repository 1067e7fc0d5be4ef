// Package diag is the failure-containment layer of the estimation
// pipeline. The estimator is meant to run "in the loop" of design-space
// exploration, so a malformed model, an ill-formed source, or a runaway
// simulation must produce a bounded, diagnosable failure — never a hang or
// a process-killing panic. This package supplies the three pieces every
// stage shares:
//
//   - structured, source-positioned Diagnostics (severity, stage,
//     block/op location) collected into a concurrency-safe List;
//   - the typed cancellation errors ErrCanceled and ErrDeadline that a
//     context-aware stage returns when it is cut short, plus FromContext
//     to translate a context's state into them;
//   - Guard, a recover boundary that converts a residual panic inside a
//     stage into a *PanicError carrying the stage tag and stack trace.
package diag

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// Info is advisory output (timings, configuration echoes).
	Info Severity = iota
	// Warning marks degraded but usable results (e.g. a basic block
	// estimated with a fallback latency for an unmapped op class).
	Warning
	// Error marks a failure of the emitting stage.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Stage names the pipeline stage a diagnostic originates from.
type Stage string

// The pipeline stages, in flow order.
const (
	StageParse    Stage = "parse"
	StageCheck    Stage = "check"
	StageLower    Stage = "lower"
	StageSimplify Stage = "simplify"
	StageVerify   Stage = "verify"
	StageAnnotate Stage = "annotate"
	StageSimulate Stage = "simulate"
	StageGenerate Stage = "generate"
)

// Diagnostic is one structured, source-positioned message. Pos is a
// free-form location: "file:line:col" for front-end stages, "func/bb3"
// for per-block estimation messages, "pe/task" for simulation messages;
// empty when no location applies.
type Diagnostic struct {
	Severity Severity
	Stage    Stage
	Pos      string
	Msg      string
	// Err is the underlying error, when the diagnostic wraps one.
	Err error
}

// String renders the diagnostic as "stage: severity: pos: msg".
func (d Diagnostic) String() string {
	var sb strings.Builder
	sb.WriteString(string(d.Stage))
	sb.WriteString(": ")
	sb.WriteString(d.Severity.String())
	if d.Pos != "" {
		sb.WriteString(": ")
		sb.WriteString(d.Pos)
	}
	sb.WriteString(": ")
	sb.WriteString(d.Msg)
	return sb.String()
}

// Error makes an Error-severity diagnostic usable as a Go error.
func (d Diagnostic) Error() string { return d.String() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (d Diagnostic) Unwrap() error { return d.Err }

// List is a concurrency-safe diagnostic collector shared by the pipeline
// stages. The zero value is ready to use; a nil *List discards everything,
// so emitting code never needs a nil check.
type List struct {
	mu sync.Mutex
	ds []Diagnostic
}

// Add appends one diagnostic.
func (l *List) Add(d Diagnostic) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// Warnf emits a Warning diagnostic.
func (l *List) Warnf(stage Stage, pos, format string, args ...any) {
	l.Add(Diagnostic{Severity: Warning, Stage: stage, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Errorf emits an Error diagnostic.
func (l *List) Errorf(stage Stage, pos, format string, args ...any) {
	l.Add(Diagnostic{Severity: Error, Stage: stage, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// AddError records err as an Error diagnostic for the stage (no-op on nil
// err). If err already is a Diagnostic it is kept verbatim.
func (l *List) AddError(stage Stage, err error) {
	if l == nil || err == nil {
		return
	}
	var d Diagnostic
	if errors.As(err, &d) {
		l.Add(d)
		return
	}
	l.Add(Diagnostic{Severity: Error, Stage: stage, Msg: err.Error(), Err: err})
}

// All returns a snapshot of the collected diagnostics in emission order.
func (l *List) All() []Diagnostic {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Diagnostic(nil), l.ds...)
}

// Count returns the number of diagnostics at exactly the given severity.
func (l *List) Count(s Severity) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, d := range l.ds {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Len returns the total number of collected diagnostics.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

// String renders every diagnostic, one per line.
func (l *List) String() string {
	var sb strings.Builder
	for _, d := range l.All() {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ------------------------------------------------------------ cancellation

// ErrCanceled is the typed error a stage returns when its context was
// canceled. It wraps context.Canceled, so both errors.Is(err, ErrCanceled)
// and errors.Is(err, context.Canceled) hold.
var ErrCanceled = &cancelError{msg: "run canceled", cause: context.Canceled}

// ErrDeadline is the typed error a stage returns when its context's
// deadline expired. It wraps context.DeadlineExceeded.
var ErrDeadline = &cancelError{msg: "deadline exceeded", cause: context.DeadlineExceeded}

type cancelError struct {
	msg   string
	cause error
}

func (e *cancelError) Error() string { return e.msg }
func (e *cancelError) Unwrap() error { return e.cause }

// FromContext translates the context's state into the typed cancellation
// errors: nil while the context is live, ErrDeadline after its deadline,
// ErrCanceled after a cancel. Stages with internal loops call this
// periodically.
func FromContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// Wait blocks until done is closed or ctx ends, and then returns nil or
// ctx's typed error (FromContext): the wait of a single-flight fill's
// waiters.
func Wait(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return FromContext(ctx)
	}
}

// IsCancellation reports whether err stems from a canceled or expired
// context (directly or wrapped).
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ---------------------------------------------------------- panic recovery

// PanicError is a panic recovered at a pipeline stage boundary, converted
// into an ordinary error carrying the stage tag and the stack trace of the
// panicking goroutine.
type PanicError struct {
	Stage Stage
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: internal panic: %v", e.Stage, e.Value)
}

// Guard runs fn and converts a panic inside it into a *PanicError tagged
// with the stage. Errors returned by fn pass through unchanged. Every
// pipeline stage boundary runs inside a Guard, so no input reachable
// through the public API can kill the process.
func Guard(stage Stage, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: stage, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
