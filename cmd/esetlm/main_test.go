package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ese/internal/cli"
	"ese/internal/jobspec"
)

// -vcd and -trace-json record a timed run's activity: with any other
// engine they are a usage error (exit 2) and no file is written.
func TestActivityFlagsNeedTimedEngine(t *testing.T) {
	dir := t.TempDir()
	for _, engine := range []string{jobspec.EngineFunctional, jobspec.EngineBoard} {
		for flag, o := range map[string]outputs{
			"-vcd":        {vcdPath: filepath.Join(dir, "w.vcd")},
			"-trace-json": {traceJSON: filepath.Join(dir, "t.json")},
		} {
			spec := jobspec.DefaultTLM()
			spec.Engine, spec.Frames, spec.Calibrate = engine, 1, false
			if err := run(&spec, o); cli.ExitCode(err) != cli.ExitUsage {
				t.Errorf("-engine %s %s: %v, want exit %d", engine, flag, err, cli.ExitUsage)
			}
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("rejected runs wrote %d files", len(files))
	}
}

// -profile-json writes the report to a file or, given "-", as all of
// stdout, so "-" with another stdout output (-json, -profile) is a usage
// error that prints nothing; block counts do not depend on timing, so the
// functional run's per-PE cycles equal the timed run's.
func TestFunctionalProfileMatchesTimed(t *testing.T) {
	spec := jobspec.DefaultTLM()
	spec.Design, spec.Frames, spec.Calibrate = "SW+2", 1, false
	timed := spec
	want, err := new(jobspec.Runner).Run(context.Background(), &timed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for flag, o := range map[string]outputs{
		"-json":    {profileJSON: "-", jsonOut: true},
		"-profile": {profileJSON: "-", profile: true},
	} {
		s := spec
		stdout := filepath.Join(dir, "rejected")
		if err := withStdout(stdout, func() error { return run(&s, o) }); cli.ExitCode(err) != cli.ExitUsage {
			t.Errorf("-profile-json - %s: %v, want exit %d", flag, err, cli.ExitUsage)
		}
		if data, _ := os.ReadFile(stdout); len(data) != 0 {
			t.Errorf("-profile-json - %s printed %q", flag, data)
		}
	}
	for _, engine := range []string{jobspec.EngineFunctional, jobspec.EngineTimed} {
		for _, dest := range []string{filepath.Join(dir, "profile.json"), "-"} {
			s := spec
			s.Engine = engine
			stdout := filepath.Join(dir, "stdout")
			if err := withStdout(stdout, func() error { return run(&s, outputs{profileJSON: dest}) }); err != nil {
				t.Fatalf("-engine %s -profile-json %s: %v", engine, dest, err)
			}
			path := dest
			if dest == "-" {
				path = stdout
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("-engine %s -profile-json %s wrote no report: %v", engine, dest, err)
			}
			var rep struct {
				CyclesByPE map[string]uint64 `json:"cycles_by_pe"`
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("-engine %s -profile-json %s: %v", engine, dest, err)
			}
			if len(rep.CyclesByPE) == 0 || !reflect.DeepEqual(rep.CyclesByPE, want.TLM.CyclesByPE) {
				t.Errorf("-engine %s profile cycles_by_pe %v, timed run %v", engine, rep.CyclesByPE, want.TLM.CyclesByPE)
			}
		}
	}
}

// withStdout runs f with os.Stdout writing to the file at path.
func withStdout(path string, f func() error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	saved := os.Stdout
	os.Stdout = file
	defer func() { os.Stdout = saved }()
	return f()
}
