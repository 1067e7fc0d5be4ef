// Command esegen is the ahead-of-time Go code generator of the estimation
// flow: it transpiles annotated CDFG programs to real Go source, the
// third (fastest) execution tier behind -exec=gen.
//
// Standalone mode (default) emits a self-contained `go build`-able
// timed-TLM package for one built-in design spec, with the per-block
// delays the pipeline annotates for a timed run of that spec: the design
// and delays come from jobspec's TLM step (Runner.Standalone):
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
// self-test program, registered under the program's code fingerprint,
// in one file per group: each app's designs share a base type holding
// the functions they emit identically, and each self-test program is a
// group of one. The output is deterministic, so CI can regenerate and
// `git diff --exit-code` the directory.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage or input error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
	var r jobspec.Runner
	pl, err := r.Pipeline(spec, jobspec.RunOpts{})
	if err != nil {
		return cli.Input(err)
	}
	defer cli.PrintDiags("esegen", pl.Diagnostics())
	if module == "" {
		module = "esegen_" + sanitize(spec.App+"_"+spec.Design)
	}
	d, files, err := r.Standalone(context.Background(), spec, pl, module)
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

// registryGroup is one generated file: the designs of one app, which
// share a base type, or one self-test program.
type registryGroup struct {
	file    string // gen_<file>.go
	base    string // gen<base> base type name
	members []codegen.EngineMember
}

// registryGroups builds the deterministic group list the registry is
// generated from: the example designs of each app, then the codegen
// self-test corpus, one program per group.
func registryGroups() ([]registryGroup, error) {
	mp3 := registryGroup{file: "mp3", base: "MP3"}
	for _, design := range []string{"SW", "SW+1", "SW+2", "SW+4"} {
		prog, err := apps.CompileMP3(design, apps.DefaultMP3)
		if err != nil {
			return nil, fmt.Errorf("mp3 %s: %w", design, err)
		}
		mp3.members = append(mp3.members, codegen.EngineMember{Sym: "MP3" + symOf(design), Prog: prog})
	}
	jpeg := registryGroup{file: "jpeg", base: "JPEG"}
	for _, design := range []string{"SW", "SW+DCT"} {
		prog, err := apps.CompileJPEG(design, apps.DefaultJPEG)
		if err != nil {
			return nil, fmt.Errorf("jpeg %s: %w", design, err)
		}
		jpeg.members = append(jpeg.members, codegen.EngineMember{Sym: "JPEG" + symOf(design), Prog: prog})
	}
	groups := []registryGroup{mp3, jpeg}
	for _, sp := range codegen.SelfTest {
		prog, err := codegen.CompileSelfTest(sp.Name)
		if err != nil {
			return nil, fmt.Errorf("selftest %s: %w", sp.Name, err)
		}
		sym := "ST" + strings.ToUpper(sp.Name[:1]) + sp.Name[1:]
		groups = append(groups, registryGroup{
			file: "selftest_" + sanitize(sp.Name), base: sym,
			members: []codegen.EngineMember{{Sym: sym, Prog: prog}},
		})
	}
	return groups, nil
}

// runRegistry regenerates dir: one gen_*.go per group, each program
// fingerprint emitted once, stale generated files removed,
// byte-deterministic output.
func runRegistry(dir string) error {
	groups, err := registryGroups()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seen := make(map[cdfg.Fingerprint]string)
	keep := make(map[string]bool)
	engines := 0
	for _, g := range groups {
		var members []codegen.EngineMember
		for _, m := range g.members {
			fp := m.Prog.CodeFingerprint()
			if prev, dup := seen[fp]; dup {
				fmt.Printf("skip gen%s: same code fingerprint as gen%s\n", m.Sym, prev)
				continue
			}
			seen[fp] = m.Sym
			members = append(members, m)
		}
		if len(members) == 0 {
			continue
		}
		src, err := codegen.EngineSource("registry", g.base, members...)
		if err != nil {
			return fmt.Errorf("%s: %w", g.file, err)
		}
		name := "gen_" + g.file + ".go"
		keep[name] = true
		engines += len(members)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes, %d engines)\n", path, len(src), len(members))
	}
	// Drop generated files for groups no longer in the list.
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
	fmt.Printf("registry: %d engines in %d files in %s\n", engines, len(keep), dir)
	return nil
}

// symOf maps a design name onto a type-name fragment: "SW+DCT" -> "SWDCT".
func symOf(design string) string { return strings.ReplaceAll(design, "+", "") }

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
