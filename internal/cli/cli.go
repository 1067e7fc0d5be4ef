// Package cli centralizes error hygiene for the command-line front ends:
// a shared exit-code convention, input-error classification, and stderr
// rendering of structured diagnostics. Every command follows the same
// contract:
//
//	0  success
//	1  runtime failure (simulation error, deadline/cancellation, panic)
//	2  usage or input error (bad flags, unreadable files, malformed
//	   source or model descriptions)
package cli

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"ese/internal/diag"
	"ese/internal/profile"
)

// Exit codes shared by every command.
const (
	ExitOK      = 0
	ExitRuntime = 1
	ExitUsage   = 2
)

// InputError marks a failure caused by what the user supplied — a
// malformed source file, an unreadable path, a bad model description —
// as opposed to a runtime failure of the tool itself.
type InputError struct {
	Err error
}

func (e *InputError) Error() string { return e.Err.Error() }

func (e *InputError) Unwrap() error { return e.Err }

// Input wraps err as an InputError (nil stays nil).
func Input(err error) error {
	if err == nil {
		return nil
	}
	return &InputError{Err: err}
}

// ExitCode classifies an error into the shared exit-code convention.
// Unreadable files and front-end diagnostics (parse/check/lower/verify
// stages) count as input errors even when not explicitly wrapped — a
// verification failure means the input program or model is malformed,
// not that the tool broke.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var in *InputError
	if errors.As(err, &in) {
		return ExitUsage
	}
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) {
		return ExitUsage
	}
	var d diag.Diagnostic
	if errors.As(err, &d) {
		switch d.Stage {
		case diag.StageParse, diag.StageCheck, diag.StageLower, diag.StageVerify:
			return ExitUsage
		}
	}
	return ExitRuntime
}

// Fail prints the error to stderr prefixed with the program name and
// exits with the classified code. A nil error is a no-op.
func Fail(prog string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, err)
	os.Exit(ExitCode(err))
}

// PrintDiags renders collected warnings and infos to stderr, one per
// line, prefixed with the program name. Error-severity diagnostics are
// skipped: they surface as the command's returned error and would print
// twice. Safe on a nil or empty list.
func PrintDiags(prog string, l *diag.List) {
	if l == nil {
		return
	}
	for _, d := range l.All() {
		if d.Severity >= diag.Error {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", prog, d.String())
	}
}

// WriteProfile renders a cycle-attribution report the way the -profile
// and -profile-json flags ask: the JSON form to jsonPath ("-" = stdout,
// "" = none), then, when text is set, the ranked text report with top
// rows to stdout.
func WriteProfile(rep *profile.Report, jsonPath string, text bool, top int) error {
	if jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if jsonPath == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if text {
		fmt.Print(rep.Text(top))
	}
	return nil
}
