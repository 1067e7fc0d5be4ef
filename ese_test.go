package ese

import (
	"strings"
	"testing"
)

const facadeSrc = `
int tab[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int sum(int a[], int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) s += a[i];
  return s;
}
void main() { out(sum(tab, 8)); }
`

func TestFacadeCompileAndRun(t *testing.T) {
	prog, err := CompileC("t.c", facadeSrc)
	if err != nil {
		t.Fatalf("CompileC: %v", err)
	}
	outStream, err := RunInterp(prog, "main")
	if err != nil {
		t.Fatalf("RunInterp: %v", err)
	}
	if len(outStream) != 1 || outStream[0] != 31 {
		t.Fatalf("out = %v, want [31]", outStream)
	}
}

func TestFacadeEstimationFlow(t *testing.T) {
	prog, err := CompileC("t.c", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MicroBlazePUM().WithCache(CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := Annotate(prog, mb)
	if a.TotalStatic() <= 0 {
		t.Fatal("no static delay")
	}
	c := a.EmitTimedC()
	if !strings.Contains(c, "wait(") {
		t.Fatal("timed C missing wait calls")
	}
	boardCycles, err := BoardCycles(prog, "main", mb, CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	issCycles, err := ISSCycles(prog, "main", CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if boardCycles == 0 || issCycles == 0 {
		t.Fatalf("board=%d iss=%d", boardCycles, issCycles)
	}
}

func TestFacadeMP3EndToEnd(t *testing.T) {
	cfg := MP3Config{Frames: 1, Seed: 11}
	trainProg, err := CompileC("train.c", mustMP3Source(t, "SW", MP3Config{Frames: 1, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Calibrate(MicroBlazePUM(), trainProg, "main")
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	d, err := MP3Design("SW+1", cfg, mb, CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fun, err := RunFunctionalTLM(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := MP3Design("SW+1", cfg, mb, CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	timed, err := RunTimedTLM(d2)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := MP3Design("SW+1", cfg, mb, CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	board, err := RunBoard(d3)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs identical across all three engines.
	a, b, c := fun.OutByPE["mb"], timed.OutByPE["mb"], board.PEs["mb"].Out
	if len(a) == 0 || len(a) != len(b) || len(b) != len(c) {
		t.Fatalf("output lengths: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || b[i] != c[i] {
			t.Fatalf("outputs diverge at %d", i)
		}
	}
	// Timed estimate within a sane band of the board.
	est := float64(timed.EndCycles(100_000_000))
	ref := float64(board.EndCycles(100_000_000))
	if est < ref*0.7 || est > ref*1.3 {
		t.Fatalf("timed TLM %v vs board %v: out of band", est, ref)
	}
}

func TestFacadeGenerateTLM(t *testing.T) {
	d, err := MP3Design("SW+1", MP3Config{Frames: 1, Seed: 4}, MicroBlazePUM(), CacheCfg{ISize: 2048, DSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateTLM(d)
	if err != nil {
		t.Fatal(err)
	}
	files, err := GenerateTLMPackage(d, "facadetlm")
	if err != nil {
		t.Fatal(err)
	}
	if src != string(files["main.go"]) {
		t.Fatal("GenerateTLM differs from GenerateTLMPackage's main.go")
	}
}

func TestFacadePUMJSONRoundTrip(t *testing.T) {
	data, err := MicroBlazePUM().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadPUM(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "microblaze" {
		t.Fatalf("name = %q", p.Name)
	}
}

func mustMP3Source(t *testing.T, design string, cfg MP3Config) string {
	t.Helper()
	src, err := MP3Source(design, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestFacadeSimplifyAndDetails(t *testing.T) {
	prog, err := CompileC("t.c", facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	before := prog.NumBlocks()
	Simplify(prog)
	if prog.NumBlocks() > before {
		t.Fatal("Simplify grew the CFG")
	}
	outStream, err := RunInterp(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	if outStream[0] != 31 {
		t.Fatalf("simplified program output = %v", outStream)
	}
	mb, err := MicroBlazePUM().WithCache(CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	schedOnly := AnnotateWithDetail(prog, mb, Detail{})
	full := AnnotateWithDetail(prog, mb, FullDetail)
	if schedOnly.TotalStatic() >= full.TotalStatic() {
		t.Fatal("schedule-only not below full detail")
	}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			e := EstimateBlock(b, mb)
			if len(b.Instrs) > 0 && e.Total <= 0 {
				t.Fatal("EstimateBlock returned nothing")
			}
		}
	}
}

func TestFacadePUMBuilders(t *testing.T) {
	for _, p := range []*PUM{MicroBlazePUM(), CustomHWPUM("x", 1e8), DualIssuePUM()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestFacadeRTOSDesign(t *testing.T) {
	src, err := MediaSource("SW", MP3Config{Frames: 1, Seed: 2}, JPEGConfig{Blocks: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileC("media.c", src)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MicroBlazePUM().WithCache(CacheCfg{ISize: 8192, DSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := &Design{
		Name:    "facade-rtos",
		Program: prog,
		Bus:     DefaultBus(),
		PEs: []*PE{{
			Name: "cpu", Kind: Processor, PUM: mb,
			Tasks: []SWTask{
				{Name: "dec", Entry: "main", Priority: 2},
				{Name: "enc", Entry: "jpeg_main", Priority: 1},
			},
			RTOS: RTOSConfig{Policy: RTOSRoundRobin, TimeSliceCycles: 50_000, ContextSwitchCycles: 50},
		}},
	}
	res, err := RunTimedTLM(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesByPE["cpu/dec"] == 0 || res.CyclesByPE["cpu/enc"] == 0 {
		t.Fatalf("task cycles missing: %v", res.CyclesByPE)
	}
	if res.SwitchesByPE["cpu"] < 2 {
		t.Fatalf("switches = %d", res.SwitchesByPE["cpu"])
	}
	// JPEG source builder is also reachable from the facade.
	if JPEGSource(JPEGConfig{Blocks: 1, Seed: 1}) == "" {
		t.Fatal("empty JPEG source")
	}
}
