// Command esegen is the ahead-of-time Go code generator of the estimation
// flow: it transpiles annotated CDFG programs to real Go source, the
// third (fastest) execution tier behind -exec=gen.
//
// Standalone mode (default) emits a self-contained `go build`-able
// timed-TLM package for one built-in design spec, with the per-block
// delays the pipeline annotates for a timed run of that spec (the same
// main.go `esetlm -gen` prints):
//
//	esegen -design SW+1 -o /tmp/tlm_sw1
//
//	-app mp3|jpeg        application corpus (default mp3)
//	-design NAME         design name (mp3: SW, SW+1, SW+2, SW+4; jpeg: SW, SW+DCT)
//	-frames N            workload size (default 2)
//	-calibrate           calibrate the PUM on the training workload (default true)
//	-icache/-dcache N    cache sizes in bytes
//	-o DIR               output directory (required; created if missing)
//	-module NAME         module name of the emitted go.mod (default from design)
//
// The emitted binary prints the canonical {cycles_by_pe, out_by_pe,
// steps} JSON that `esetlm -json` prints for the same spec — byte for
// byte, which is what the CI codegen job asserts.
//
// Registry mode regenerates the pre-generated in-process engines that
// back `-exec=gen` without plugin support:
//
//	esegen -registry [-dir internal/codegen/registry]
//
// It emits one generated engine per example design and per codegen
// self-test program, registered under the program's code fingerprint;
// the output is deterministic, so CI can regenerate and `git diff
// --exit-code` the directory.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage or input error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ese"
	"ese/internal/apps"
	"ese/internal/cdfg"
	"ese/internal/cli"
	"ese/internal/codegen"
	"ese/internal/jobspec"
)

func main() {
	spec := jobspec.DefaultTLM()
	var (
		registry bool
		dir      string
		outDir   string
		module   string
	)
	spec.BindWorkload(flag.CommandLine)
	spec.BindCache(flag.CommandLine)
	flag.BoolVar(&registry, "registry", false, "regenerate the in-process generated-engine registry and exit")
	flag.StringVar(&dir, "dir", "internal/codegen/registry", "registry directory (-registry mode)")
	flag.StringVar(&outDir, "o", "", "output directory for the standalone package")
	flag.StringVar(&module, "module", "", "module name of the emitted go.mod (default derived from the design)")
	flag.Parse()

	if registry {
		cli.Fail("esegen", runRegistry(dir))
		return
	}
	cli.Fail("esegen", runStandalone(&spec, outDir, module))
}

// runStandalone emits the `go build`-able timed-TLM package for one spec.
func runStandalone(spec *jobspec.Spec, outDir, module string) error {
	if outDir == "" {
		return cli.Input(fmt.Errorf("esegen: -o DIR is required (output directory for the generated package)"))
	}
	if err := spec.Validate(); err != nil {
		return cli.Input(err)
	}
	if spec.Engine != jobspec.EngineTimed {
		return cli.Input(fmt.Errorf("esegen: only the timed engine has a standalone form (got -engine %s)", spec.Engine))
	}
	d, err := spec.BuildDesign()
	if err != nil {
		return err
	}
	if module == "" {
		module = "esegen_" + sanitize(spec.App+"_"+spec.Design)
	}
	files, err := ese.GenerateTLMPackage(d, module)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, files[name], 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(files[name]))
	}
	fmt.Printf("standalone timed TLM for design %s: `go build` in %s\n", d.Name, outDir)
	return nil
}

// registryEntry is one program the registry covers.
type registryEntry struct {
	file string // gen_<file>.go
	sym  string // gen<sym> type name
	prog *cdfg.Program
}

// registryPrograms builds the deterministic program list the registry is
// generated from: the six example designs plus the codegen self-test
// corpus.
func registryPrograms() ([]registryEntry, error) {
	var entries []registryEntry
	mp3Syms := map[string]string{"SW": "MP3SW", "SW+1": "MP3SW1", "SW+2": "MP3SW2", "SW+4": "MP3SW4"}
	for _, design := range []string{"SW", "SW+1", "SW+2", "SW+4"} {
		prog, err := apps.CompileMP3(design, apps.DefaultMP3)
		if err != nil {
			return nil, fmt.Errorf("mp3 %s: %w", design, err)
		}
		entries = append(entries, registryEntry{
			file: "mp3_" + sanitize(design), sym: mp3Syms[design], prog: prog,
		})
	}
	jpegSyms := map[string]string{"SW": "JPEGSW", "SW+DCT": "JPEGSWDCT"}
	for _, design := range []string{"SW", "SW+DCT"} {
		prog, err := apps.CompileJPEG(design, apps.DefaultJPEG)
		if err != nil {
			return nil, fmt.Errorf("jpeg %s: %w", design, err)
		}
		entries = append(entries, registryEntry{
			file: "jpeg_" + sanitize(design), sym: jpegSyms[design], prog: prog,
		})
	}
	for _, sp := range codegen.SelfTest {
		prog, err := codegen.CompileSelfTest(sp.Name)
		if err != nil {
			return nil, fmt.Errorf("selftest %s: %w", sp.Name, err)
		}
		entries = append(entries, registryEntry{
			file: "selftest_" + sanitize(sp.Name),
			sym:  "ST" + strings.ToUpper(sp.Name[:1]) + sp.Name[1:],
			prog: prog,
		})
	}
	return entries, nil
}

// runRegistry regenerates dir: one gen_*.go per unique program
// fingerprint, stale generated files removed, byte-deterministic output.
func runRegistry(dir string) error {
	entries, err := registryPrograms()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seen := make(map[cdfg.Fingerprint]string)
	keep := make(map[string]bool)
	for _, e := range entries {
		fp := e.prog.CodeFingerprint()
		if prev, dup := seen[fp]; dup {
			fmt.Printf("skip %s: same code fingerprint as %s\n", e.file, prev)
			continue
		}
		seen[fp] = e.file
		src, err := codegen.EngineSource(e.prog, "registry", e.sym)
		if err != nil {
			return fmt.Errorf("%s: %w", e.file, err)
		}
		name := "gen_" + e.file + ".go"
		keep[name] = true
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes, fp %s)\n", path, len(src), fp)
	}
	// Drop generated files for programs no longer in the list.
	old, err := filepath.Glob(filepath.Join(dir, "gen_*.go"))
	if err != nil {
		return err
	}
	for _, path := range old {
		if keep[filepath.Base(path)] {
			continue
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		fmt.Printf("removed stale %s\n", path)
	}
	fmt.Printf("registry: %d engines in %s\n", len(keep), dir)
	return nil
}

// sanitize maps a design/app name onto a file/identifier fragment.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '+':
			// "SW+1" reads better as sw1 than sw_1.
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
