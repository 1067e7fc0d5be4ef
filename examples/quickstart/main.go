// Quickstart: compile a small C process, calibrate the processing unit
// model's statistical sub-models on a training input, annotate the
// evaluation build (Algorithms 1 and 2), inspect the generated timed code,
// and compare the fast TLM estimate with the cycle-accurate board.
package main

import (
	"fmt"
	"log"
	"strings"

	"ese"
)

// firSrc is a 16-tap FIR filter; %MUL% parameterizes the input stimulus so
// the training and evaluation inputs differ (calibration honesty).
const firSrc = `
int coeff[16] = {3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, -7, 9, 3};
int samples[512];
int output[512];

// The 16-tap reduction is fully unrolled, as an optimizing compiler would
// emit it: the estimation technique targets exactly these large
// straight-line basic blocks (see the paper's MP3 kernels).
void fir() {
  int n;
  for (n = 15; n < 512; n++) {
    int acc = coeff[0] * samples[n] >> 4;
    acc += coeff[1] * samples[n - 1] >> 4;
    acc += coeff[2] * samples[n - 2] >> 4;
    acc += coeff[3] * samples[n - 3] >> 4;
    acc += coeff[4] * samples[n - 4] >> 4;
    acc += coeff[5] * samples[n - 5] >> 4;
    acc += coeff[6] * samples[n - 6] >> 4;
    acc += coeff[7] * samples[n - 7] >> 4;
    acc += coeff[8] * samples[n - 8] >> 4;
    acc += coeff[9] * samples[n - 9] >> 4;
    acc += coeff[10] * samples[n - 10] >> 4;
    acc += coeff[11] * samples[n - 11] >> 4;
    acc += coeff[12] * samples[n - 12] >> 4;
    acc += coeff[13] * samples[n - 13] >> 4;
    acc += coeff[14] * samples[n - 14] >> 4;
    acc += coeff[15] * samples[n - 15] >> 4;
    output[n] = acc;
  }
}

void main() {
  int i;
  for (i = 0; i < 512; i++) samples[i] = (i * %MUL% % 512) - 256;
  fir();
  int chk = 0;
  for (i = 0; i < 512; i++) chk = chk * 31 + output[i];
  out(chk);
}
`

func build(mul string) (*ese.Program, error) {
	return ese.CompileC("fir.c", strings.ReplaceAll(firSrc, "%MUL%", mul))
}

func main() {
	// 1. Front end: C subset -> CDFG, for the evaluation and training inputs.
	prog, err := build("37")
	if err != nil {
		log.Fatal(err)
	}
	trainProg, err := build("53")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d functions, %d basic blocks, %d IR ops\n",
		len(prog.Funcs), prog.NumBlocks(), prog.NumInstrs())

	// 2. Calibrate the statistical memory and branch models of the
	// MicroBlaze-like PE on the training input, then select a cache
	// configuration.
	cacheCfg := ese.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024}
	mb, err := ese.Calibrate(ese.MicroBlazePUM(), trainProg, "main")
	if err != nil {
		log.Fatal(err)
	}
	mb, err = mb.WithCache(cacheCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated: branch miss %.2f, d-hit %.4f at %s\n",
		mb.Branch.MissRate, mb.Mem.Current.DHitRate, cacheCfg)

	// 3. Annotate: Algorithm 1 (optimistic scheduling of each block's DFG
	// on the pipeline model) + Algorithm 2 (statistical penalties).
	a, err := ese.Annotate(prog, mb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Summary())

	// 4. The generated timed C code (excerpt).
	timedC := a.EmitTimedC()
	fmt.Println("\ngenerated timed C (excerpt):")
	for i, line := 0, 0; i < len(timedC) && line < 10; i++ {
		fmt.Print(string(timedC[i]))
		if timedC[i] == '\n' {
			line++
		}
	}

	// 5. Functional reference, timed-TLM estimate, board measurement.
	outStream, err := ese.RunInterp(prog, "main")
	if err != nil {
		log.Fatal(err)
	}
	board, err := ese.BoardCycles(prog, "main", mb, cacheCfg)
	if err != nil {
		log.Fatal(err)
	}
	d := &ese.Design{
		Name:    "fir",
		Program: prog,
		Bus:     ese.DefaultBus(),
		PEs:     []*ese.PE{{Name: "mb", Kind: ese.Processor, Entry: "main", PUM: mb}},
	}
	timed, err := ese.RunTimedTLM(d)
	if err != nil {
		log.Fatal(err)
	}
	est := timed.CyclesByPE["mb"]
	fmt.Printf("\nfunctional result (checksum): %d\n", outStream[0])
	fmt.Printf("board measurement:  %d cycles\n", board)
	fmt.Printf("timed TLM estimate: %d cycles (%+.2f%% error)\n",
		est, 100*(float64(est)-float64(board))/float64(board))
}
