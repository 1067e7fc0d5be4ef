package jobspec

import (
	"context"
	"testing"
)

// Regression: a spec relying on kind-probed defaults and one spelling the
// same defaults out must share a fingerprint, or the daemon's coalescing
// and the DSE resume verification treat identical jobs as distinct.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	implicit := &Spec{Kind: KindTLM, Design: "SW", Frames: 2, Calibrate: true}
	explicit := &Spec{
		Kind: KindTLM, App: AppMP3, Design: "SW", Frames: 2,
		Engine: EngineTimed, Seed: 0xC0FFEE, Calibrate: true,
		Exec: "auto", Fallback: 0,
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("explicit-default TLM spec fingerprints apart from the implicit one")
	}

	// A zero-valued Tune block is the same job as no Tune block at all.
	tuned := *implicit
	tuned.Tune = &Tune{}
	if tuned.Fingerprint() != implicit.Fingerprint() {
		t.Fatal("zero Tune block moved the fingerprint")
	}

	// Estimation side: source name, exec engine and entry defaults.
	a := estimateSpec()
	b := estimateSpec()
	b.Exec = ""
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal(`exec "" fingerprints apart from exec "auto"`)
	}
	c := estimateSpec()
	c.Entry = "main" // inert without Profile
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("entry on a non-profiled estimate moved the fingerprint")
	}

	// Kind-inert fields must not leak into the hash: a TLM spec carrying a
	// stale Model (say, from flag defaults) is the same TLM job.
	d := DefaultTLM()
	e := DefaultTLM()
	e.Model = Model{Name: "microblaze"}
	if d.Fingerprint() != e.Fingerprint() {
		t.Fatal("estimation-only Model field moved a TLM fingerprint")
	}
}

func TestFingerprintDistinguishesRealDifferences(t *testing.T) {
	base := DefaultTLM()
	tuned := DefaultTLM()
	tuned.Tune = &Tune{Depth: 5}
	if base.Fingerprint() == tuned.Fingerprint() {
		t.Fatal("pipeline-depth tune shares the untuned fingerprint")
	}
	wider := DefaultTLM()
	wider.Tune = &Tune{FUs: map[string]int{"alu": 2}}
	if tuned.Fingerprint() == wider.Fingerprint() || base.Fingerprint() == wider.Fingerprint() {
		t.Fatal("distinct tunes share a fingerprint")
	}
	seeded := DefaultTLM()
	seeded.Seed = 7
	if base.Fingerprint() == seeded.Fingerprint() {
		t.Fatal("non-default seed shares the default-seed fingerprint")
	}
	jpeg := DefaultTLM()
	jpeg.App = AppJPEG
	jpeg.Design = "SW"
	jpeg.Frames = 4
	mp3 := DefaultTLM()
	mp3.Design = "SW"
	mp3.Frames = 4
	if jpeg.Fingerprint() == mp3.Fingerprint() {
		t.Fatal("jpeg and mp3 jobs share a fingerprint")
	}
}

func TestTuneValidation(t *testing.T) {
	bad := []Tune{
		{Depth: 1},
		{Depth: 17},
		{Issue: 9},
		{FUs: map[string]int{"alu": 0}},
		{BranchMiss: f64(1.5)},
		{BranchPenalty: f64(-1)},
	}
	for i, tu := range bad {
		s := DefaultTLM()
		tu := tu
		s.Tune = &tu
		if err := s.Validate(); err == nil {
			t.Errorf("bad tune %d accepted: %+v", i, tu)
		}
	}
	ok := DefaultTLM()
	ok.Tune = &Tune{Depth: 5, Issue: 2, FUs: map[string]int{"alu": 2}, BranchMiss: f64(0.1)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tune rejected: %v", err)
	}
}

func f64(v float64) *float64 { return &v }

func TestValidateApps(t *testing.T) {
	s := DefaultTLM()
	s.App = AppJPEG
	s.Design = "SW+DCT"
	if err := s.Validate(); err != nil {
		t.Fatalf("valid jpeg spec rejected: %v", err)
	}
	s.Design = "SW+1" // an mp3 design name
	if err := s.Validate(); err == nil {
		t.Fatal("mp3 design accepted for the jpeg app")
	}
	s.App = "h264"
	if err := s.Validate(); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunnerTLMJPEGAndTune(t *testing.T) {
	r := &Runner{}
	jpeg := DefaultTLM()
	jpeg.App = AppJPEG
	jpeg.Design = "SW+DCT"
	jpeg.Frames = 2
	jpeg.Calibrate = false
	if err := jpeg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), &jpeg)
	if err != nil {
		t.Fatalf("jpeg tlm run: %v", err)
	}
	if res.TLM == nil || res.TLM.EndPs == 0 {
		t.Fatalf("jpeg tlm run produced no timing: %+v", res.TLM)
	}

	// Tuning the datapath must plumb through to the simulated timing.
	plain := DefaultTLM()
	plain.Frames = 1
	plain.Calibrate = false
	tuned := plain
	tuned.Tune = &Tune{Depth: 8}
	pres, err := r.Run(context.Background(), &plain)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := r.Run(context.Background(), &tuned)
	if err != nil {
		t.Fatal(err)
	}
	if pres.TLM.EndPs == tres.TLM.EndPs {
		t.Fatal("depth-8 tune left the simulated end time unchanged")
	}
	if tres.TLM.EndPs <= pres.TLM.EndPs {
		t.Fatalf("deeper pipeline got faster: %d -> %d ps", pres.TLM.EndPs, tres.TLM.EndPs)
	}

	// The base model is memoized per calibration setting.
	m1, err := r.BaseModel(&plain)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.BaseModel(&tuned)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("base model not memoized across jobs")
	}
}
