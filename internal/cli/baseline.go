package cli

import (
	"encoding/json"
	"fmt"
	"os"
)

// Baseline is a committed record a gate compares fresh runs against
// (BENCH_tlm.json, BENCH_accuracy.json): rows under unique keys, measured
// on one workload. Each record type compares its own quantities.
type Baseline interface {
	// Workload names the input the rows were measured on.
	Workload() string
	// RowKeys lists the row keys in file order, or reports the first row
	// the record's own check rejects.
	RowKeys() ([]string, error)
}

// ReadBaseline decodes the committed baseline at path into b and checks
// it. Every way it can be unusable is an input error (exit 2), never a
// regression (exit 1): an unreadable file, malformed or truncated JSON,
// a row RowKeys rejects, no rows, a row key outside known (a baseline of
// another row set), or a duplicate key.
func ReadBaseline(path string, b Baseline, known map[string]bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return Input(fmt.Errorf("baseline: %w", err))
	}
	if err := json.Unmarshal(data, b); err != nil {
		return Input(fmt.Errorf("baseline %s: malformed or truncated JSON: %w", path, err))
	}
	keys, err := b.RowKeys()
	if err != nil {
		return Input(fmt.Errorf("baseline %s: %w", path, err))
	}
	if len(keys) == 0 {
		return Input(fmt.Errorf("baseline %s: no rows", path))
	}
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if !known[key] {
			return Input(fmt.Errorf("baseline %s: unknown row %q (a baseline of another row set?)", path, key))
		}
		if seen[key] {
			return Input(fmt.Errorf("baseline %s: duplicate row %q", path, key))
		}
		seen[key] = true
	}
	return nil
}

// SameWorkload rejects a baseline of another workload than the run's as
// an input error: its simulated quantities cannot match the run's.
func SameWorkload(path string, base Baseline, run string) error {
	if w := base.Workload(); w != run {
		return Input(fmt.Errorf("baseline %s: measured on %q, this run on %q", path, w, run))
	}
	return nil
}

// MarshalRecord renders v as every record is written: indented JSON and
// a final newline.
func MarshalRecord(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteRecord writes v as MarshalRecord renders it to path ("-" = stdout).
func WriteRecord(path string, v any) error {
	data, err := MarshalRecord(v)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Drift prints a gate's violations against the baseline at path to
// stderr, one a line, and returns the exit-1 error when there are any.
func Drift(prog, gate, path string, violations []string) error {
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "%s: %s regression: %s\n", prog, gate, v)
	}
	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("%d %s regression(s) against %s", len(violations), gate, path)
}
