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

// -profile-json on the functional engine writes the report; block counts
// do not depend on timing, so its per-PE cycles equal the timed run's.
func TestFunctionalProfileMatchesTimed(t *testing.T) {
	spec := jobspec.DefaultTLM()
	spec.Design, spec.Frames, spec.Calibrate = "SW+2", 1, false
	timed := spec
	want, err := new(jobspec.Runner).Run(context.Background(), &timed)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "profile.json")
	spec.Engine = jobspec.EngineFunctional
	if err := run(&spec, outputs{profileJSON: path}); err != nil {
		t.Fatalf("-engine functional -profile-json: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-engine functional -profile-json wrote no report: %v", err)
	}
	var rep struct {
		CyclesByPE map[string]uint64 `json:"cycles_by_pe"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.CyclesByPE) == 0 || !reflect.DeepEqual(rep.CyclesByPE, want.TLM.CyclesByPE) {
		t.Errorf("functional profile cycles_by_pe %v, timed run %v", rep.CyclesByPE, want.TLM.CyclesByPE)
	}
}
