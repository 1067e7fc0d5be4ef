package tlm

import (
	"os"
	"testing"

	"ese/internal/apps"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/rtos"
	"ese/internal/trace"
)

// TestActivityRecordPinned pins both renderings of a run's activity
// record byte for byte against testdata: the VCD and the trace_event
// timeline that `esetlm -design SW+4 -frames 1 -calibrate=false -vcd F
// -trace-json G` writes (the same design, uncalibrated model, default
// caches and full-detail delays), and both renderings of a two-task RTOS
// run. The files were recorded when the VCD had a recorder of its own, fed
// by hooks parallel to the timeline's; one record now renders both.
func TestActivityRecordPinned(t *testing.T) {
	sw4, err := apps.MP3Design("SW+4", apps.MP3Config{Frames: 1, Seed: apps.DefaultMP3.Seed},
		pum.MicroBlaze(), pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *platform.Design
	}{
		{"mp3_sw4", sw4},
		{"rtos_coop", rtosDesign(t, rtos.Config{Policy: rtos.Cooperative})},
	} {
		ev := trace.NewEvents()
		if _, err := Run(tc.d, Options{
			Timed:    true,
			WaitMode: WaitAtTransactions,
			Delays:   fullDelays(t, tc.d),
			Events:   ev,
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		timeline, err := ev.RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		for file, got := range map[string]string{
			tc.name + ".vcd":        ev.RenderVCD(),
			tc.name + ".trace.json": string(timeline) + "\n",
		} {
			want, err := os.ReadFile("testdata/" + file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from testdata/%s:\n%s", tc.name, file, got)
			}
		}
	}
}
