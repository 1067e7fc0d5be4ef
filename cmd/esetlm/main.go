// Command esetlm generates and simulates transaction-level models of the
// built-in MP3 decoder and JPEG encoder designs (the paper's §5
// evaluation platforms).
//
// Usage:
//
//	esetlm -design SW+2 [flags]
//
//	-app mp3|jpeg               application (default mp3)
//	-design NAME                mapping (mp3: SW, SW+1, SW+2, SW+4; jpeg:
//	                            SW, SW+DCT; default SW)
//	-frames N                   MP3 frames or JPEG blocks (default 2)
//	-icache/-dcache N           cache sizes in bytes
//	-engine functional|timed|board   simulation engine (default timed)
//	-calibrate                  calibrate the PUM on the training workload
//	-verify                     statically verify the design (IR, PE
//	                            models, channels) once before running
//	                            (exit 2 on findings)
//	-Werror                     with -verify, treat warnings as errors
//	-graph                      print the process/channel structure (Fig. 6)
//	-json                       print the canonical {cycles_by_pe,
//	                            out_by_pe, steps} JSON summary (matches a
//	                            standalone esegen binary byte for byte;
//	                            functional and timed engines)
//	-vcd FILE                   write a VCD activity waveform (timed
//	                            engine; exit 2 otherwise)
//	-trace-json FILE            write a Chrome trace_event timeline
//	                            (Perfetto-loadable; timed engine; exit 2
//	                            otherwise)
//	-profile                    print the ranked cycle-attribution report
//	                            (functional and timed engines; exit 2 on
//	                            the board)
//	-profile-json FILE          write the attribution report as JSON
//	                            ("-" = stdout, which then carries only
//	                            the report; exit 2 with -json or
//	                            -profile)
//	-top N                      rows shown by -profile (default 20)
//	-exec auto|gen|compiled|tree   IR execution engine
//	-timeout D                  wall-clock bound on the whole run,
//	                            calibration and board runs included
//
// The spec runs through internal/jobspec's one TLM step
// (jobspec.Runner.ExecTLM), the executor esed and esedse use for the same
// job spec the HTTP API accepts: this command only renders its outcome.
//
// Exit codes: 0 success, 1 runtime failure (including timeout), 2 usage or
// input error. Diagnostics go to stderr, results to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ese/internal/cli"
	"ese/internal/jobspec"
	"ese/internal/platform"
	"ese/internal/rtl"
	"ese/internal/tlm"
	"ese/internal/trace"
)

// outputs bundles the presentation-only flag values that stay outside the
// shared job spec.
type outputs struct {
	graph       bool
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
	flag.BoolVar(&o.jsonOut, "json", false, "print the canonical {cycles_by_pe, out_by_pe, steps} JSON summary instead of text")
	flag.StringVar(&o.vcdPath, "vcd", "", "write a VCD activity waveform to this file (timed engine)")
	flag.StringVar(&o.traceJSON, "trace-json", "", "write a Chrome trace_event timeline to this file (timed engine)")
	flag.BoolVar(&o.profile, "profile", false, "print the cycle-attribution report (functional and timed engines)")
	flag.StringVar(&o.profileJSON, "profile-json", "", "write the attribution report as JSON to this file (\"-\" = stdout)")
	flag.IntVar(&o.top, "top", 20, "rows shown by -profile (0 = all)")
	flag.Parse()

	cli.Fail("esetlm", run(&spec, o))
}

func run(spec *jobspec.Spec, o outputs) error {
	spec.Profile = o.profile || o.profileJSON != ""
	if err := spec.Validate(); err != nil {
		return cli.Input(err)
	}
	if (o.vcdPath != "" || o.traceJSON != "") && spec.Engine != jobspec.EngineTimed {
		return cli.Input(fmt.Errorf("-vcd and -trace-json are only supported with the timed engine"))
	}
	if o.jsonOut && spec.Engine == jobspec.EngineBoard {
		return cli.Input(fmt.Errorf("-json is only supported with the functional and timed engines"))
	}
	if o.profileJSON == "-" && (o.jsonOut || o.profile) {
		return cli.Input(fmt.Errorf("-profile-json - makes the report all of stdout: it takes neither -json nor -profile"))
	}
	var r jobspec.Runner
	pl, err := r.Pipeline(spec, jobspec.RunOpts{})
	if err != nil {
		return cli.Input(err)
	}
	defer cli.PrintDiags("esetlm", pl.Diagnostics())
	ctx, cancel := spec.WithTimeout(context.Background(), 0)
	defer cancel()
	if o.graph {
		d, err := r.Design(ctx, spec, pl)
		if err != nil {
			return err
		}
		fmt.Print(d.Graph())
		return nil
	}
	var ev *trace.Events
	if o.vcdPath != "" || o.traceJSON != "" {
		ev = trace.NewEvents()
	}
	run, err := r.ExecTLM(ctx, spec, pl, ev)
	if err != nil {
		return err
	}
	// With -profile-json -, the report is all of stdout, as with eseest.
	reportOnly := o.profileJSON == "-"
	status := os.Stdout
	if reportOnly {
		status = os.Stderr
	}
	if err := writeActivity(status, ev, o); err != nil {
		return err
	}
	switch {
	case reportOnly:
	case run.Board != nil:
		printBoard(run.Board, run.Design)
	case o.jsonOut:
		if err := printJSON(run.TLM); err != nil {
			return err
		}
	default:
		if spec.Engine == jobspec.EngineTimed {
			fmt.Printf("annotation time: %v\n", run.TLM.AnnoTime.Round(time.Microsecond))
		}
		printTLM(run.TLM, run.Design)
	}
	if run.Profile == nil {
		return nil
	}
	return cli.WriteProfile(run.Profile, o.profileJSON, o.profile, o.top)
}

// writeActivity writes the timed run's activity record ev (nil when
// neither -vcd nor -trace-json was given) to the files they name, and
// reports each file on status.
func writeActivity(status io.Writer, ev *trace.Events, o outputs) error {
	if o.vcdPath != "" {
		if err := os.WriteFile(o.vcdPath, []byte(ev.RenderVCD()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(status, "wrote waveform to %s\n", o.vcdPath)
	}
	if o.traceJSON != "" {
		data, err := ev.RenderJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(status, "wrote trace timeline to %s (%d events)\n", o.traceJSON, ev.Len())
	}
	return nil
}

// printBoard renders a board run: end time and, per PE, cycles and
// retired instructions, with a processor's cache hit and branch miss
// rates.
func printBoard(res *rtl.BoardResult, d *platform.Design) {
	fmt.Printf("design %s on cycle-accurate board: %v wall\n", d.Name, res.Wall.Round(time.Millisecond))
	fmt.Printf("total time: %d bus cycles (%.3f ms simulated)\n",
		res.EndCycles(d.Bus.ClockHz), float64(res.EndPs)/1e9)
	for _, pe := range d.PEs {
		r := res.PEs[pe.Name]
		fmt.Printf("  PE %-10s %12d cycles  %10d instrs", r.Name, r.Cycles, r.Steps)
		if pe.Kind == platform.Processor {
			fmt.Printf("  ihit=%.4f dhit=%.4f brmiss=%.3f",
				r.Mem.IHitRate, r.Mem.DHitRate, r.BranchMiss)
		}
		fmt.Println()
	}
}

// printJSON emits the canonical {cycles_by_pe, out_by_pe, steps} summary —
// the same object (byte for byte) a standalone esegen-emitted TLM binary
// prints for an identical spec, which is what the CI codegen job diffs.
func printJSON(res *tlm.Result) error {
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

func printTLM(res *tlm.Result, d *platform.Design) {
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
