package jobspec

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ese/internal/pum"
)

func TestValidateCalibrate(t *testing.T) {
	s := DefaultCalibrate()
	if err := s.Validate(); err != nil {
		t.Fatalf("default calibrate spec invalid: %v", err)
	}
	s.Train = "mp3"
	if err := s.Validate(); err != nil {
		t.Fatalf("mp3 training set rejected: %v", err)
	}
	for _, bad := range []string{"spec", "mp3+mp3", "mp3+", "+jpeg"} {
		s.Train = bad
		if err := s.Validate(); err == nil {
			t.Errorf("training set %q: want error", bad)
		}
	}
}

func TestParseJSONCalibrateDefaults(t *testing.T) {
	s, err := ParseJSON([]byte(`{"kind": "calibrate"}`))
	if err != nil {
		t.Fatal(err)
	}
	n := s.Normalized()
	if n.Train != DefaultTrain {
		t.Fatalf("normalized train %q, want %q", n.Train, DefaultTrain)
	}
	// A spec spelling the default out hashes identically.
	explicit, err := ParseJSON([]byte(`{"kind": "calibrate", "train": "mp3+jpeg"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() != explicit.Fingerprint() {
		t.Error("default and explicit training set fingerprints differ")
	}
	// A different training set hashes apart.
	other, err := ParseJSON([]byte(`{"kind": "calibrate", "train": "jpeg"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() == other.Fingerprint() {
		t.Error("distinct training sets share a fingerprint")
	}
}

func TestRunnerCalibrate(t *testing.T) {
	s := DefaultCalibrate()
	s.Train = "mp3"
	var r Runner
	res, err := r.Run(context.Background(), &s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindCalibrate || res.Calib == nil {
		t.Fatalf("unexpected result: kind %q calib %v", res.Kind, res.Calib)
	}
	c := res.Calib
	if c.Train != "mp3" || c.BranchMiss <= 0 || c.BranchMiss >= 1 {
		t.Fatalf("summary: train %q miss %v", c.Train, c.BranchMiss)
	}
	// One provenance entry per cached standard configuration.
	cached := 0
	for _, cfg := range pum.StandardCacheConfigs {
		if cfg.ISize != 0 || cfg.DSize != 0 {
			cached++
		}
	}
	if len(c.Provenance) != cached {
		t.Fatalf("provenance %d entries, want %d", len(c.Provenance), cached)
	}
	// The returned model round-trips and carries the provenance.
	model, err := pum.FromJSON(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Calib) != cached || model.Branch.MissRate != c.BranchMiss {
		t.Fatalf("model: %d provenance entries, miss %v", len(model.Calib), model.Branch.MissRate)
	}
}

// A calibrate job's steps bound the training run: a bound below the mp3
// training program's length fails with the step-limit error and returns
// no model; a bound at or above it calibrates exactly as no bound does.
func TestRunnerCalibrateStepBound(t *testing.T) {
	var r Runner
	run := func(steps uint64) (*Result, error) {
		s := DefaultCalibrate()
		s.Train = "mp3"
		s.Steps = steps
		return r.Run(context.Background(), &s)
	}
	free, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	length := free.Calib.Provenance[0].Steps
	res, err := run(length / 2)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("bound below the training length: want the step-limit error, got %v", err)
	}
	if res != nil && res.Calib != nil {
		t.Fatal("bound below the training length returned a calib result")
	}
	for _, steps := range []uint64{length, length + 1} {
		bounded, err := run(steps)
		if err != nil {
			t.Fatalf("bound %d (training length %d): %v", steps, length, err)
		}
		if !bytes.Equal(bounded.Calib.Model, free.Calib.Model) {
			t.Errorf("bound %d: model differs from the unbounded one", steps)
		}
	}
}
