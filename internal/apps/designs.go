package apps

import (
	"fmt"

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

// CompileMP3 generates and compiles one MP3 design variant.
func CompileMP3(design string, cfg MP3Config) (*cdfg.Program, error) {
	src, err := MP3Source(design, cfg)
	if err != nil {
		return nil, err
	}
	return Compile("mp3_"+design+".c", src)
}

// CompileJPEG generates and compiles one JPEG design variant: "SW" runs
// the whole encoder on the processor, "SW+DCT" ships the 2-D DCT to a
// hardware process.
func CompileJPEG(design string, cfg JPEGConfig) (*cdfg.Program, error) {
	var src string
	switch design {
	case "SW":
		src = JPEGSource(cfg)
	case "SW+DCT":
		src = JPEGSourceDCTHW(cfg)
	default:
		return nil, fmt.Errorf("apps: unknown JPEG design %q", design)
	}
	return Compile("jpeg_"+design+".c", src)
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
