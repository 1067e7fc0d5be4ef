package codegen

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ese/internal/cdfg"
	"ese/internal/engine"
	"ese/internal/platform"
	"ese/internal/pum"
	"ese/internal/tlm"
)

// pingPongSrc is a producer/consumer pair exchanging eight-word frames
// over two channels.
const pingPongSrc = `
int buf[8];
int res[8];
void main() {
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    for (i = 0; i < 8; i++) buf[i] = r * 10 + i;
    send(0, buf, 8);
    recv(1, res, 8);
    out(res[0]);
    out(res[7]);
  }
}
void worker() {
  int w[8];
  int r;
  for (r = 0; r < 3; r++) {
    int i;
    recv(0, w, 8);
    for (i = 0; i < 8; i++) w[i] = w[i] * 2;
    send(1, w, 8);
  }
}
`

// dotSrc is a self-contained single process with a call and global arrays.
const dotSrc = `
int a[64]; int b[64];
int dot(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i++) acc = acc + a[i] * b[i];
  return acc;
}
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = i; b[i] = 2 * i - 7; }
  out(dot(64));
  out(dot(13) / 5);
}
`

func compileT(t *testing.T, src string) *cdfg.Program {
	t.Helper()
	prog, err := compileSrc("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func microBlaze(t *testing.T) *pum.PUM {
	t.Helper()
	mb, err := pum.MicroBlaze().WithCache(pum.CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

// twoPEDesign maps the ping-pong pair onto a processor and a HW unit.
func twoPEDesign(t *testing.T) *platform.Design {
	return &platform.Design{
		Name:    "pingpong",
		Program: compileT(t, pingPongSrc),
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{
			{Name: "cpu", Kind: platform.Processor, Entry: "main", PUM: microBlaze(t)},
			{Name: "acc", Kind: platform.HWUnit, Entry: "worker", PUM: pum.CustomHW("acc", 100_000_000)},
		},
	}
}

// onePEDesign is shaped like `eseest -emit-go`'s: one processor PE named
// after its model, running main over the default bus.
func onePEDesign(t *testing.T) *platform.Design {
	mb := microBlaze(t)
	return &platform.Design{
		Name:    "dot.c",
		Program: compileT(t, dotSrc),
		Bus:     platform.DefaultBus(),
		PEs:     []*platform.PE{{Name: mb.Name, Kind: platform.Processor, Entry: "main", PUM: mb}},
	}
}

// canonicalJSON renders a TLM result as the {cycles_by_pe, out_by_pe,
// steps} line the standalone program and `esetlm -json` print.
func canonicalJSON(t *testing.T, res *tlm.Result) string {
	t.Helper()
	outByPE := make(map[string][]int32, len(res.OutByPE))
	for pe, outs := range res.OutByPE {
		if outs == nil {
			outs = []int32{}
		}
		outByPE[pe] = outs
	}
	sum := struct {
		CyclesByPE map[string]uint64  `json:"cycles_by_pe"`
		OutByPE    map[string][]int32 `json:"out_by_pe"`
		Steps      uint64             `json:"steps"`
	}{res.CyclesByPE, outByPE, res.Steps}
	data, err := json.Marshal(&sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkStandaloneMatchesInProcess builds and runs the design's standalone
// package and requires its JSON line to equal the in-process timed TLM on
// the same pipeline delays.
func checkStandaloneMatchesInProcess(t *testing.T, d *platform.Design) {
	t.Helper()
	if testing.Short() {
		t.Skip("compiling generated code is slow")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	delays, _, err := engine.New(engine.Options{}).DelaysCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tlm.Run(d, tlm.Options{Timed: true, WaitMode: tlm.WaitAtTransactions, Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range d.PEs {
		if ref.CyclesByPE[pe.Name] == 0 {
			t.Fatalf("PE %s ran no timed cycles in process", pe.Name)
		}
	}
	files, err := StandaloneFiles(d, delays, "satest")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, stderr.String())
	}
	if got, want := strings.TrimSuffix(string(out), "\n"), canonicalJSON(t, ref); got != want {
		t.Fatalf("standalone TLM prints\n%s\nin-process TLM gives\n%s", got, want)
	}
}

func TestStandaloneTwoPEMatchesInProcess(t *testing.T) {
	checkStandaloneMatchesInProcess(t, twoPEDesign(t))
}

func TestStandaloneOnePEMatchesInProcess(t *testing.T) {
	checkStandaloneMatchesInProcess(t, onePEDesign(t))
}

func TestStandaloneFilesRejectsRTOSDesign(t *testing.T) {
	d := &platform.Design{
		Name:    "rtosgen",
		Program: compileT(t, `void a() { out(1); } void b() { out(2); }`),
		Bus:     platform.DefaultBus(),
		PEs: []*platform.PE{{
			Name: "cpu", Kind: platform.Processor, PUM: microBlaze(t),
			Tasks: []platform.SWTask{{Name: "t1", Entry: "a"}, {Name: "t2", Entry: "b"}},
		}},
	}
	delays := map[string][]float64{"cpu": make([]float64, d.Program.NumBlocks())}
	if _, err := StandaloneFiles(d, delays, "rtosgen"); err == nil {
		t.Fatal("RTOS design accepted by the standalone generator")
	}
}

func TestStandaloneFilesNeedsDelaysForEveryPE(t *testing.T) {
	d := twoPEDesign(t)
	delays := map[string][]float64{"cpu": make([]float64, d.Program.NumBlocks())}
	_, err := StandaloneFiles(d, delays, "pingpong")
	if err == nil || !strings.Contains(err.Error(), `no delays for PE "acc"`) {
		t.Fatalf("missing PE delays: err = %v", err)
	}
	delays["acc"] = delays["cpu"][1:]
	_, err = StandaloneFiles(d, delays, "pingpong")
	if err == nil || !strings.Contains(err.Error(), `PE "acc" has`) {
		t.Fatalf("short PE delay table: err = %v", err)
	}
}
