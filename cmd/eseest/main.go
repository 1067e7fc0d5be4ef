// Command eseest is the estimation front end: it compiles a C-subset
// source file, annotates every basic block against a processing unit model
// (Algorithms 1 and 2 of the paper), and prints the annotation summary,
// the generated timed source, or the cycle-attribution profile.
//
// Usage:
//
//	eseest [flags] app.c
//
//	-pum name|file.json   PE model: "microblaze", "customhw", "dualissue",
//	                      or a JSON PUM description (default microblaze)
//	-icache/-dcache N     cache sizes in bytes for the statistical model
//	-emit-c               print the delay-annotated C-like source
//	-emit-go              print the standalone timed-TLM Go program
//	                      (the main.go esegen writes) of a one-PE design
//	                      running -entry on the model over the default
//	                      bus; requires a self-contained entry
//	-blocks               print the per-block estimate table
//	-profile              execute the program and print the ranked
//	                      cycle-attribution report (where the estimated
//	                      cycles go); requires a self-contained entry
//	-profile-json FILE    write the full attribution report as JSON
//	                      ("-" for stdout)
//	-entry NAME           entry function for -profile and -emit-go
//	                      (default main)
//	-top N                rows shown by -profile (default 20, 0 = all)
//	-dump                 print the CDFG IR
//	-strict               fail (exit 1) when the PE model does not map an
//	                      op class the program uses
//	-verify               statically verify the compiled IR and lint the
//	                      PE model before estimating (exit 2 on findings)
//	-Werror               with -verify, treat warnings (e.g. op-mapping
//	                      coverage gaps) as errors
//	-fallback N           cycles charged to unmapped op classes when not
//	                      strict (graceful degradation)
//	-timeout D            wall-clock watchdog for the whole run
//
// The flag→options wiring lives in internal/jobspec, shared with esetlm,
// esebench and the esed daemon: this command is one front end over the
// same job spec the HTTP API accepts.
//
// Exit codes: 0 success, 1 runtime failure (including timeout), 2 usage or
// input error. Diagnostics go to stderr, results to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ese"
	"ese/internal/cdfg"
	"ese/internal/cli"
	"ese/internal/codegen"
	"ese/internal/iss"
	"ese/internal/jobspec"
)

// outputs bundles the presentation-only flag values that stay outside the
// shared job spec.
type outputs struct {
	emitC, emitGo  bool
	blocks, dump   bool
	dotCFG, dotDFG string
	disasm         bool
	profile        bool
	profileJSON    string
	pumArg         string
}

func main() {
	spec := jobspec.Default()
	var o outputs
	spec.BindCache(flag.CommandLine)
	spec.BindStrict(flag.CommandLine)
	spec.BindVerify(flag.CommandLine)
	spec.BindRun(flag.CommandLine)
	spec.BindProfile(flag.CommandLine)
	flag.StringVar(&o.pumArg, "pum", "microblaze", "PE model name or JSON file")
	flag.BoolVar(&o.emitC, "emit-c", false, "emit delay-annotated C-like source")
	flag.BoolVar(&o.emitGo, "emit-go", false, "emit the standalone timed-TLM Go program of a one-PE design")
	flag.BoolVar(&o.blocks, "blocks", false, "print per-block estimates")
	flag.BoolVar(&o.dump, "dump", false, "print the CDFG IR")
	flag.StringVar(&o.dotCFG, "dot-cfg", "", "print the dot CFG of the named function")
	flag.StringVar(&o.dotDFG, "dot-dfg", "", "print the dot DFGs of the named function's blocks")
	flag.BoolVar(&o.disasm, "disasm", false, "print the generated virtual-ISA assembly")
	flag.BoolVar(&o.profile, "profile", false, "execute and print the cycle-attribution profile")
	flag.StringVar(&o.profileJSON, "profile-json", "", "write the attribution report as JSON to FILE (\"-\" = stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: eseest [flags] app.c")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	cli.Fail("eseest", run(flag.Arg(0), &spec, o))
}

func run(file string, spec *jobspec.Spec, o outputs) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return cli.Input(err)
	}
	spec.Source = jobspec.Source{Name: file, Code: string(src)}
	opts, err := spec.Options()
	if err != nil {
		return cli.Input(err)
	}
	ctx := context.Background()
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.Timeout))
		defer cancel()
	}
	pl := ese.NewPipeline(opts)
	defer cli.PrintDiags("eseest", pl.Diagnostics())
	prog, err := pl.CompileCtx(ctx, file, string(src))
	if err != nil {
		return err
	}
	if o.dump {
		fmt.Print(prog.Dump())
		return nil
	}
	if o.dotCFG != "" {
		fn := prog.Func(o.dotCFG)
		if fn == nil {
			return fmt.Errorf("no function %q", o.dotCFG)
		}
		fmt.Print(fn.DotCFG())
		return nil
	}
	if o.dotDFG != "" {
		fn := prog.Func(o.dotDFG)
		if fn == nil {
			return fmt.Errorf("no function %q", o.dotDFG)
		}
		for _, b := range fn.Blocks {
			fmt.Print(cdfg.DotDFG(b))
		}
		return nil
	}
	if o.disasm {
		isa, err := iss.Generate(prog)
		if err != nil {
			return err
		}
		fmt.Print(iss.Disassemble(isa))
		return nil
	}
	if err := spec.LoadModelArg(o.pumArg); err != nil {
		return cli.Input(err)
	}
	model, err := spec.ResolveModel()
	if err != nil {
		return cli.Input(err)
	}
	if model, err = spec.ApplyCache(model); err != nil {
		return err
	}
	a, err := pl.AnnotateCtx(ctx, prog, model)
	if err != nil {
		return err
	}
	switch {
	case o.profile || o.profileJSON != "":
		rep, err := jobspec.ProfileEstimate(ctx, spec, a)
		if err != nil {
			return err
		}
		return cli.WriteProfile(rep, o.profileJSON, o.profile, spec.Top)
	case o.emitC:
		fmt.Print(a.EmitTimedC())
	case o.emitGo:
		src, err := emitGo(file, spec.Entry, a)
		if err != nil {
			return err
		}
		fmt.Print(src)
	case o.blocks:
		est := a.Table.Estimates()
		for _, fn := range prog.Funcs {
			fmt.Printf("func %s\n", fn.Name)
			for _, b := range fn.Blocks {
				e := est[0]
				est = est[1:]
				degraded := ""
				if e.Degraded() {
					degraded = fmt.Sprintf("  DEGRADED(%d ops)", e.Unmapped)
				}
				fmt.Printf("  bb%-3d ops=%-4d operands=%-4d sched=%-5d br=%-6.2f imem=%-8.2f dmem=%-8.2f total=%d%s\n",
					b.ID, e.Ops, e.Operands, e.Sched, e.BranchPen, e.IDelay, e.DDelay, int64(e.Total), degraded)
			}
		}
	default:
		fmt.Print(a.Summary())
	}
	return nil
}

// emitGo returns the standalone timed-TLM program of a one-PE design:
// the annotated program's entry running on its model over the default
// bus, with the run's own delays baked in.
func emitGo(file, entry string, a *ese.Annotated) (string, error) {
	pe := &ese.PE{Name: a.PUM.Name, Kind: ese.Processor, Entry: entry, PUM: a.PUM}
	d := &ese.Design{
		Name:    filepath.Base(file),
		Program: a.Prog,
		PEs:     []*ese.PE{pe},
		Bus:     ese.DefaultBus(),
	}
	files, err := codegen.StandaloneFiles(d, map[string][]float64{pe.Name: a.Delays()}, "eseest")
	if err != nil {
		return "", err
	}
	return string(files["main.go"]), nil
}
