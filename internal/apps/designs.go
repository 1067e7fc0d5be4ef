package apps

import (
	"fmt"
	"slices"
	"sync"

	"ese/internal/cache"
	"ese/internal/cdfg"
	"ese/internal/cfront"
	"ese/internal/platform"
	"ese/internal/pum"

	// Link the pre-generated ahead-of-time engines for the example apps:
	// any front end that can build these designs can also run them with
	// -exec=gen (interp.NewEngine finds them by code fingerprint).
	_ "ese/internal/codegen/registry"
)

// Compile parses, checks and lowers a C-subset source string.
func Compile(name, src string) (*cdfg.Program, error) {
	f, err := cfront.Parse(name, src)
	if err != nil {
		return nil, err
	}
	u, err := cfront.Check(f)
	if err != nil {
		return nil, err
	}
	return cdfg.Lower(u)
}

// CompileMP3 returns a private program of one MP3 design variant at the
// given workload: the design's template deep-copied onto the workload's
// NGRANULES (2·Frames) and bitstream. It equals Compile of
// MP3Source(design, cfg) in everything but instruction positions, which
// are the template's (see template).
func CompileMP3(design string, cfg MP3Config) (*cdfg.Program, error) {
	t := templates["mp3/"+design]
	if t == nil {
		return nil, fmt.Errorf("apps: unknown MP3 design %q", design)
	}
	return t.bind(int32(2*cfg.Frames), genBitstream(cfg))
}

// CompileJPEG returns a private program of one JPEG design variant at the
// given workload, as CompileMP3 does, bound to the workload's NBLOCKS and
// image: "SW" runs the whole encoder on the processor, "SW+DCT" ships the
// 2-D DCT to a hardware process.
func CompileJPEG(design string, cfg JPEGConfig) (*cdfg.Program, error) {
	t := templates["jpeg/"+design]
	if t == nil {
		return nil, fmt.Errorf("apps: unknown JPEG design %q", design)
	}
	if cfg.Blocks < 1 {
		return nil, fmt.Errorf("apps: JPEG workload needs blocks >= 1, got %d", cfg.Blocks)
	}
	return t.bind(int32(cfg.Blocks), jpegImage(cfg))
}

// template is one design's program, compiled once per process from the
// design's source at the default workload (DefaultMP3, DefaultJPEG).
// Workloads of one design differ only in two globals, a count (NGRANULES,
// NBLOCKS) and an input array (bitstream, image): sizes and initializers,
// which the code fingerprint excludes. So bind serves every workload from
// the template's code, and a new workload costs its input data and one
// deep copy instead of a pass through the C front end. A bound program
// carries the template's instruction positions, which are the positions
// the generated engines report for every workload (they are generated
// from the default workload's programs).
type template struct {
	file, count, input string
	source             func() (string, error)

	once sync.Once
	prog *cdfg.Program
	err  error
}

// templates holds the template of every (app, design), keyed "app/design";
// each compiles on first use.
var templates = func() map[string]*template {
	m := make(map[string]*template)
	for _, app := range []string{"mp3", "jpeg"} {
		for _, d := range DesignNames(app) {
			m[app+"/"+d] = newTemplate(app, d)
		}
	}
	return m
}()

// newTemplate returns the uncompiled template of one design of an app,
// "mp3" or "jpeg".
func newTemplate(app, design string) *template {
	if app == "mp3" {
		return &template{file: "mp3_" + design + ".c", count: "NGRANULES", input: "bitstream",
			source: func() (string, error) { return MP3Source(design, DefaultMP3) }}
	}
	return &template{file: "jpeg_" + design + ".c", count: "NBLOCKS", input: "image",
		source: func() (string, error) { return jpegSource(DefaultJPEG, design == "SW+DCT"), nil }}
}

// program returns the template's program, compiling it on first use
// (concurrent first callers share one compile; an error is kept too).
// The fingerprint table is computed here, so every bound copy carries it.
func (t *template) program() (*cdfg.Program, error) {
	t.once.Do(func() {
		src, err := t.source()
		if err == nil {
			t.prog, err = Compile(t.file, src)
		}
		if err == nil {
			t.prog.CodeFingerprint()
		}
		t.err = err
	})
	return t.prog, t.err
}

// bind returns a private copy of the template's code with the count
// global set to n and the input array to data. Every other global is the
// template's, shared read-only: the engines copy initializers.
func (t *template) bind(n int32, data []int32) (*cdfg.Program, error) {
	prog, err := t.program()
	if err != nil {
		return nil, err
	}
	globals := slices.Clone(prog.Globals)
	for i, g := range globals {
		switch g.Name {
		case t.count:
			globals[i] = &cdfg.Global{Name: g.Name, Size: 1, Init: []int32{n}}
		case t.input:
			globals[i] = &cdfg.Global{Name: g.Name, IsArray: true, Size: int32(len(data)), Init: data}
		}
	}
	return prog.WithGlobals(globals)
}

// DesignNames lists the designs of an application, "mp3" or "jpeg", in
// order (MP3DesignNames, JPEGDesignNames); nil for any other name.
func DesignNames(app string) []string {
	switch app {
	case "mp3":
		return MP3DesignNames
	case "jpeg":
		return JPEGDesignNames
	}
	return nil
}

// hwPE is a custom hardware unit running one process entry at 100 MHz.
func hwPE(name, entry string) *platform.PE {
	return &platform.PE{
		Name:  name,
		Kind:  platform.HWUnit,
		Entry: entry,
		PUM:   pum.CustomHW(name, 100_000_000),
	}
}

// mapDesign maps a compiled program onto the platform: the processor
// running main under mbPUM retargeted to cacheCfg (with the board's real
// caches of the same sizes), plus the given hardware PEs on the default
// bus. The program is only referenced, never modified, so one compiled
// program can back any number of designs. The design is not validated
// here: every consumer (tlm.Run, rtl.RunBoard, codegen.StandaloneFiles,
// verify.Design) validates it, so a program mapped as the wrong variant
// fails there.
func mapDesign(name string, prog *cdfg.Program, mbPUM *pum.PUM, cacheCfg pum.CacheCfg, hw ...*platform.PE) (*platform.Design, error) {
	cpuPUM, err := mbPUM.WithCache(cacheCfg)
	if err != nil {
		return nil, err
	}
	d := &platform.Design{
		Name:    name,
		Program: prog,
		Bus:     platform.DefaultBus(),
	}
	d.PEs = append(d.PEs, &platform.PE{
		Name:   "mb",
		Kind:   platform.Processor,
		Entry:  "main",
		PUM:    cpuPUM,
		ICache: cache.BoardConfig(cacheCfg.ISize),
		DCache: cache.BoardConfig(cacheCfg.DSize),
	})
	d.PEs = append(d.PEs, hw...)
	return d, nil
}

// MP3Design builds the mapped platform for one of the paper's designs.
// mbPUM is the (typically calibrated) MicroBlaze-like model; cacheCfg
// selects the I/D cache configuration for both the statistical model and
// the board's real caches.
func MP3Design(design string, cfg MP3Config, mbPUM *pum.PUM, cacheCfg pum.CacheCfg) (*platform.Design, error) {
	prog, err := CompileMP3(design, cfg)
	if err != nil {
		return nil, err
	}
	return MapMP3(design, prog, mbPUM, cacheCfg)
}

// MapMP3 is the mapping half of MP3Design: it maps prog, a compiled
// variant of the same design (CompileMP3), onto the platform.
func MapMP3(design string, prog *cdfg.Program, mbPUM *pum.PUM, cacheCfg pum.CacheCfg) (*platform.Design, error) {
	var hw []*platform.PE
	switch design {
	case "SW":
	case "SW+1":
		hw = append(hw, hwPE("fc_l", "fc_left_hw"))
	case "SW+2":
		hw = append(hw, hwPE("imdct_l", "imdct_left_hw"), hwPE("fc_l", "fc_left_hw"))
	case "SW+4":
		hw = append(hw,
			hwPE("imdct_l", "imdct_left_hw"), hwPE("fc_l", "fc_left_hw"),
			hwPE("imdct_r", "imdct_right_hw"), hwPE("fc_r", "fc_right_hw"))
	default:
		return nil, fmt.Errorf("apps: unknown MP3 design %q", design)
	}
	return mapDesign(fmt.Sprintf("%s@%s", design, cacheCfg), prog, mbPUM, cacheCfg, hw...)
}

// JPEGDesign builds a platform for the JPEG encoder: design "SW" runs
// everything on the processor; design "SW+DCT" offloads the 2-D DCT to a
// custom hardware unit — the paper's Fig. 4 example PE in an actual
// mapping.
func JPEGDesign(design string, cfg JPEGConfig, mbPUM *pum.PUM, cacheCfg pum.CacheCfg) (*platform.Design, error) {
	prog, err := CompileJPEG(design, cfg)
	if err != nil {
		return nil, err
	}
	return MapJPEG(design, prog, mbPUM, cacheCfg)
}

// MapJPEG is the mapping half of JPEGDesign: it maps prog, a compiled
// variant of the same design (CompileJPEG), onto the platform.
func MapJPEG(design string, prog *cdfg.Program, mbPUM *pum.PUM, cacheCfg pum.CacheCfg) (*platform.Design, error) {
	var hw []*platform.PE
	switch design {
	case "SW":
	case "SW+DCT":
		hw = append(hw, hwPE("dct", "dct_hw"))
	default:
		return nil, fmt.Errorf("apps: unknown JPEG design %q", design)
	}
	return mapDesign(fmt.Sprintf("jpeg-%s@%s", design, cacheCfg), prog, mbPUM, cacheCfg, hw...)
}
