// Command esetlm generates and simulates transaction-level models of the
// built-in MP3 decoder designs (the paper's §5 evaluation platforms).
//
// Usage:
//
//	esetlm -design SW+2 [flags]
//
//	-design SW|SW+1|SW+2|SW+4   mapping (default SW)
//	-frames N                   MP3 frames to decode (default 2)
//	-icache/-dcache N           cache sizes in bytes
//	-engine functional|timed|board   simulation engine (default timed)
//	-calibrate                  calibrate the PUM on the training workload
//	-verify                     statically verify the design (IR, PE
//	                            models, channels) before running (exit 2
//	                            on findings)
//	-Werror                     with -verify, treat warnings as errors
//	-graph                      print the process/channel structure (Fig. 6)
//	-gen                        print the standalone timed-TLM Go source
//	                            (the main.go esegen -o writes) and exit
//	-json                       print the canonical {cycles_by_pe,
//	                            out_by_pe, steps} JSON summary (matches a
//	                            standalone esegen binary byte for byte)
//	-vcd FILE                   write a VCD activity waveform (timed engine)
//	-trace-json FILE            write a Chrome trace_event timeline
//	                            (Perfetto-loadable; timed engine)
//	-profile                    print the ranked cycle-attribution report
//	                            (timed engine)
//	-profile-json FILE          write the attribution report as JSON
//	-top N                      rows shown by -profile (default 20)
//	-timeout D                  wall-clock watchdog for the simulation
//
// The flag→options wiring lives in internal/jobspec, shared with eseest,
// esebench and the esed daemon: this command is one front end over the
// same job spec the HTTP API accepts.
//
// Exit codes: 0 success, 1 runtime failure (including timeout), 2 usage or
// input error. Diagnostics go to stderr, results to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ese"
	"ese/internal/cli"
	"ese/internal/jobspec"
	"ese/internal/tlm"
	"ese/internal/trace"
)

// outputs bundles the presentation-only flag values that stay outside the
// shared job spec.
type outputs struct {
	graph, gen  bool
	jsonOut     bool
	vcdPath     string
	traceJSON   string
	profile     bool
	profileJSON string
	top         int
}

func main() {
	spec := jobspec.DefaultTLM()
	var o outputs
	spec.BindWorkload(flag.CommandLine)
	spec.BindCache(flag.CommandLine)
	spec.BindVerify(flag.CommandLine)
	spec.BindRun(flag.CommandLine)
	flag.BoolVar(&o.graph, "graph", false, "print the process graph and exit")
	flag.BoolVar(&o.gen, "gen", false, "print the standalone timed-TLM Go source (esegen's main.go) and exit")
	flag.BoolVar(&o.jsonOut, "json", false, "print the canonical {cycles_by_pe, out_by_pe, steps} JSON summary instead of text")
	flag.StringVar(&o.vcdPath, "vcd", "", "write a VCD activity waveform to this file (timed engine)")
	flag.StringVar(&o.traceJSON, "trace-json", "", "write a Chrome trace_event timeline to this file (timed engine)")
	flag.BoolVar(&o.profile, "profile", false, "print the cycle-attribution report (timed engine)")
	flag.StringVar(&o.profileJSON, "profile-json", "", "write the attribution report as JSON to this file (\"-\" = stdout)")
	flag.IntVar(&o.top, "top", 20, "rows shown by -profile (0 = all)")
	flag.Parse()

	cli.Fail("esetlm", run(&spec, o))
}

func run(spec *jobspec.Spec, o outputs) error {
	if err := spec.Validate(); err != nil {
		return cli.Input(err)
	}
	opts, err := spec.Options()
	if err != nil {
		return cli.Input(err)
	}
	d, err := spec.BuildDesign()
	if err != nil {
		return err
	}
	if spec.Verify {
		// One explicit design-level verification covers every engine path,
		// including -graph/-gen/board which bypass the pipeline.
		ds := ese.VerifyDesign(d)
		for _, dg := range ds {
			fmt.Fprintf(os.Stderr, "esetlm: %s\n", dg)
		}
		if dg, bad := ese.VerifyFailure(ds, spec.Werror); bad {
			return dg
		}
	}
	if o.graph {
		fmt.Print(d.Graph())
		return nil
	}
	if o.gen {
		src, err := ese.GenerateTLM(d)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	}
	switch spec.Engine {
	case jobspec.EngineFunctional:
		pl := ese.NewPipeline(opts)
		defer cli.PrintDiags("esetlm", pl.Diagnostics())
		res, err := pl.RunFunctional(d)
		if err != nil {
			return err
		}
		if o.jsonOut {
			return printJSON(res)
		}
		printTLM(res, d)
	case jobspec.EngineTimed:
		pl := ese.NewPipeline(opts)
		defer cli.PrintDiags("esetlm", pl.Diagnostics())
		doProfile := o.profile || o.profileJSON != ""
		simOpts := tlm.Options{
			Timed:    true,
			WaitMode: tlm.WaitAtTransactions,
			Profile:  doProfile,
		}
		var v *trace.VCD
		if o.vcdPath != "" {
			v = trace.New()
			simOpts.Trace = v
		}
		var ev *trace.Events
		if o.traceJSON != "" {
			ev = trace.NewEvents()
			simOpts.Events = ev
		}
		res, err := pl.Simulate(d, simOpts)
		if err != nil {
			return err
		}
		if v != nil {
			if werr := os.WriteFile(o.vcdPath, []byte(v.Render()), 0o644); werr != nil {
				return werr
			}
			fmt.Printf("wrote waveform to %s\n", o.vcdPath)
		}
		if ev != nil {
			data, jerr := ev.RenderJSON()
			if jerr != nil {
				return jerr
			}
			if werr := os.WriteFile(o.traceJSON, append(data, '\n'), 0o644); werr != nil {
				return werr
			}
			fmt.Printf("wrote trace timeline to %s (%d events)\n", o.traceJSON, ev.Len())
		}
		if o.jsonOut {
			if err := printJSON(res); err != nil {
				return err
			}
		} else {
			fmt.Printf("annotation time: %v\n", res.AnnoTime.Round(time.Microsecond))
			printTLM(res, d)
		}
		if doProfile {
			rep, err := jobspec.ProfileTLM(context.Background(), pl, d, res)
			if err != nil {
				return err
			}
			if err := cli.WriteProfile(rep, o.profileJSON, o.profile, o.top); err != nil {
				return err
			}
		}
	case jobspec.EngineBoard:
		if o.jsonOut {
			return cli.Input(fmt.Errorf("-json is only supported with the functional and timed engines"))
		}
		res, err := ese.RunBoard(d)
		if err != nil {
			return err
		}
		fmt.Printf("design %s on cycle-accurate board: %v wall\n", d.Name, res.Wall.Round(time.Millisecond))
		fmt.Printf("total time: %d bus cycles (%.3f ms simulated)\n",
			res.EndCycles(d.Bus.ClockHz), float64(res.EndPs)/1e9)
		for _, pe := range d.PEs {
			r := res.PEs[pe.Name]
			fmt.Printf("  PE %-10s %12d cycles  %10d instrs", r.Name, r.Cycles, r.Steps)
			if pe.Kind == ese.Processor {
				fmt.Printf("  ihit=%.4f dhit=%.4f brmiss=%.3f",
					r.Mem.IHitRate, r.Mem.DHitRate, r.BranchMiss)
			}
			fmt.Println()
		}
	default:
		return cli.Input(fmt.Errorf("unknown engine %q", spec.Engine))
	}
	return nil
}

// printJSON emits the canonical {cycles_by_pe, out_by_pe, steps} summary —
// the same object (byte for byte) a standalone esegen-emitted TLM binary
// prints for an identical spec, which is what the CI codegen job diffs.
func printJSON(res *ese.TLMResult) error {
	outByPE := make(map[string][]int32, len(res.OutByPE))
	for key, outs := range res.OutByPE {
		if outs == nil {
			outs = []int32{}
		}
		outByPE[key] = outs
	}
	sum := struct {
		CyclesByPE map[string]uint64  `json:"cycles_by_pe"`
		OutByPE    map[string][]int32 `json:"out_by_pe"`
		Steps      uint64             `json:"steps"`
	}{res.CyclesByPE, outByPE, res.Steps}
	data, err := json.Marshal(&sum)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func printTLM(res *ese.TLMResult, d *ese.Design) {
	fmt.Printf("design %s: %v wall, %d IR instructions\n", res.Design, res.Wall.Round(time.Millisecond), res.Steps)
	if res.EndPs > 0 {
		fmt.Printf("total time: %d bus cycles (%.3f ms simulated)\n",
			res.EndCycles(d.Bus.ClockHz), float64(res.EndPs)/1e9)
	}
	for _, pe := range d.PEs {
		fmt.Printf("  PE %-10s %12d cycles\n", pe.Name, res.CyclesByPE[pe.Name])
	}
	outs := res.OutByPE["mb"]
	if n := len(outs); n >= 2 {
		fmt.Printf("decode checksums: L=%d R=%d (%d samples emitted)\n",
			outs[n-2], outs[n-1], n-2)
	}
}
