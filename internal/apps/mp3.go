// Package apps contains the evaluation applications of the paper, written
// in the tool's C subset, plus Go-side workload generators that synthesize
// their input data and fixed-point coefficient tables.
//
// The primary application is the MP3-decoder-like pipeline of Fig. 6:
// per granule, a variable-length (Huffman-style) bitstream decode,
// dequantization, mid/side stereo processing, alias reduction, a 36-point
// IMDCT with overlap-add per subband, and the synthesis FilterCore
// (DCT32 + 512-tap windowed polyphase filterbank). The four designs of §5
// map the left/right FilterCore and IMDCT stages onto custom hardware PEs:
//
//	SW    — everything on the processor;
//	SW+1  — left FilterCore on one HW unit;
//	SW+2  — left IMDCT and left FilterCore on two chained HW units;
//	SW+4  — both channels' IMDCT and FilterCore on four HW units (5 PEs).
//
// The audio math is fixed-point and synthetic (|x|^2 dequantization in
// place of |x|^(4/3), sine-derived window), but the computational structure
// — kernel shapes, table sizes, data volumes, communication pattern — is
// that of the paper's workload, which is what performance estimation needs.
//
// MP3Source and JPEGSource generate a workload's C text. CompileMP3 and
// CompileJPEG do not parse it per workload: each design's source goes
// through the front end once per process, at the default workload, and a
// workload's generated input data (a count and one array) is bound to a
// private copy of that template's code.
package apps

import (
	"fmt"
	"math"
	"strings"
)

// Channel ids of the MP3 platform.
const (
	ChFCLIn  = 0 // time samples -> left FilterCore HW
	ChFCLOut = 1 // PCM <- left FilterCore HW
	ChIMLIn  = 2 // spectrum -> left IMDCT HW
	ChFCRIn  = 3
	ChFCROut = 4
	ChIMRIn  = 5
)

// MP3Config parameterizes the generated workload.
type MP3Config struct {
	Frames int    // MP3 frames to decode (2 granules each)
	Seed   uint32 // bitstream generator seed
}

// DefaultMP3 is the evaluation workload; TrainMP3 is the distinct training
// workload used to calibrate the statistical PUM models.
var (
	DefaultMP3 = MP3Config{Frames: 2, Seed: 0xC0FFEE}
	TrainMP3   = MP3Config{Frames: 1, Seed: 0x5EED}
)

// MP3DesignNames lists the paper's four designs in order.
var MP3DesignNames = []string{"SW", "SW+1", "SW+2", "SW+4"}

// MP3Source generates the C source of one design variant ("SW", "SW+1",
// "SW+2", "SW+4").
func MP3Source(design string, cfg MP3Config) (string, error) {
	var leftHW, rightHW int // 0 = inline, 1 = FilterCore HW, 2 = IMDCT+FC HW
	switch design {
	case "SW":
	case "SW+1":
		leftHW = 1
	case "SW+2":
		leftHW = 2
	case "SW+4":
		leftHW, rightHW = 2, 2
	default:
		return "", fmt.Errorf("apps: unknown MP3 design %q", design)
	}
	var sb strings.Builder
	writeMP3Common(&sb, cfg)
	writeMP3Main(&sb, cfg, leftHW, rightHW)
	writeMP3HWProcs(&sb, cfg, leftHW, rightHW)
	return sb.String(), nil
}

// xorshift32 is the deterministic PRNG of the workload generator.
type xorshift32 uint32

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}

// bitWriter packs MSB-first bits into 32-bit words, matching getbits().
type bitWriter struct {
	words []int32
	cur   uint32 // the pending word's nbits bits, right-aligned
	nbits int
}

// put appends the low n bits of v (n in [0, 32]), most significant first.
func (w *bitWriter) put(v uint32, n int) {
	v &= uint32(1)<<n - 1
	free := 32 - w.nbits
	if n < free {
		w.cur = w.cur<<n | v
		w.nbits += n
		return
	}
	rem := n - free // bits of v that start the next word
	w.words = append(w.words, int32(w.cur<<free|v>>rem))
	w.cur = v & (uint32(1)<<rem - 1)
	w.nbits = rem
}

func (w *bitWriter) flush() {
	if w.nbits > 0 {
		w.words = append(w.words, int32(w.cur<<(32-w.nbits)))
		w.cur = 0
		w.nbits = 0
	}
}

// putCoef encodes one quantized coefficient with the VLC scheme decoded by
// decode_coef(): 0 -> "0"; |v| in 1..15 -> "10" mag4 sign;
// |v| in 16..255 -> "11" mag8 sign.
func (w *bitWriter) putCoef(v int) {
	if v == 0 {
		w.put(0, 1)
		return
	}
	mag := v
	sign := uint32(0)
	if v < 0 {
		mag = -v
		sign = 1
	}
	if mag <= 15 {
		w.put(2, 2) // "10"
		w.put(uint32(mag), 4)
		w.put(sign, 1)
		return
	}
	if mag > 255 {
		mag = 255
	}
	w.put(3, 2) // "11"
	w.put(uint32(mag), 8)
	w.put(sign, 1)
}

// genBitstream synthesizes the frame data: per granule, channel gains, the
// stereo mode bit, then 576 VLC coefficients per channel with a plausible
// spectral envelope (energetic low bands, sparse high bands).
func genBitstream(cfg MP3Config) []int32 {
	rng := xorshift32(cfg.Seed)
	if rng == 0 {
		rng = 1
	}
	w := &bitWriter{}
	coef := func(i int) int {
		// Zero probability rises with frequency index.
		pz := 30 + i/4
		if pz > 94 {
			pz = 94
		}
		if int(rng.next()%100) < pz {
			return 0
		}
		amp := 220/(1+i/24) + 3
		v := int(rng.next()%uint32(amp)) + 1
		if rng.next()&1 == 1 {
			v = -v
		}
		return v
	}
	for fr := 0; fr < cfg.Frames; fr++ {
		for g := 0; g < 2; g++ {
			w.put(rng.next()%20, 5) // gainL
			w.put(rng.next()%20, 5) // gainR
			w.put(rng.next()&1, 1)  // mid/side flag
			for i := 0; i < 576; i++ {
				w.putCoef(coef(i))
			}
			for i := 0; i < 576; i++ {
				w.putCoef(coef(i))
			}
		}
	}
	w.flush()
	// Slack words so boundary-crossing reads at the end stay in range.
	w.words = append(w.words, 0, 0)
	return w.words
}

// Fixed-point table generators (Q14 unless noted).

func dct32Table() []int32 {
	t := make([]int32, 32*32)
	for i := 0; i < 32; i++ {
		for k := 0; k < 32; k++ {
			t[i*32+k] = int32(math.Round(16384 * math.Cos(float64(2*k+1)*float64(i)*math.Pi/64)))
		}
	}
	return t
}

func imdct36Table() []int32 {
	t := make([]int32, 36*18)
	for n := 0; n < 36; n++ {
		for k := 0; k < 18; k++ {
			t[n*18+k] = int32(math.Round(16384 * math.Cos(math.Pi/72*float64(2*n+1+18)*float64(2*k+1))))
		}
	}
	return t
}

func sineWindow36() []int32 {
	t := make([]int32, 36)
	for n := 0; n < 36; n++ {
		t[n] = int32(math.Round(16384 * math.Sin(math.Pi/36*(float64(n)+0.5))))
	}
	return t
}

func synthesisWindow() []int32 {
	t := make([]int32, 512)
	for i := 0; i < 512; i++ {
		x := (float64(i) + 0.5) / 512
		// Lowpass-ish positive window with decaying lobes.
		t[i] = int32(math.Round(16384 * math.Sin(math.Pi*x) * (1 - 0.7*x)))
	}
	return t
}

// aliasCoefs returns the cs/ca butterfly coefficients of alias reduction.
func aliasCoefs() (cs, ca []int32) {
	ci := []float64{-0.6, -0.535, -0.33, -0.185, -0.095, -0.041, -0.0142, -0.0037}
	cs = make([]int32, 8)
	ca = make([]int32, 8)
	for i, c := range ci {
		d := math.Sqrt(1 + c*c)
		cs[i] = int32(math.Round(16384 / d))
		ca[i] = int32(math.Round(16384 * c / d))
	}
	return cs, ca
}

func writeIntArray(sb *strings.Builder, name string, vals32 []int32) {
	fmt.Fprintf(sb, "int %s[%d] = {", name, len(vals32))
	for i, v := range vals32 {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%20 == 0 {
			sb.WriteString("\n  ")
		}
		fmt.Fprintf(sb, "%d", v)
	}
	sb.WriteString("};\n")
}

// writeMP3Common emits the tables, state, and kernel functions shared by
// every design variant.
func writeMP3Common(sb *strings.Builder, cfg MP3Config) {
	fmt.Fprintf(sb, "// MP3-decoder-like workload: %d frames, seed 0x%X (generated)\n", cfg.Frames, cfg.Seed)
	fmt.Fprintf(sb, "int NGRANULES = %d;\n", cfg.Frames*2)
	writeIntArray(sb, "bitstream", genBitstream(cfg))
	writeIntArray(sb, "dct32tab", dct32Table())
	writeIntArray(sb, "imdcttab", imdct36Table())
	writeIntArray(sb, "win36", sineWindow36())
	writeIntArray(sb, "wintab", synthesisWindow())
	cs, ca := aliasCoefs()
	writeIntArray(sb, "csa_cs", cs)
	writeIntArray(sb, "csa_ca", ca)
	sb.WriteString(`
int bs_pos = 0;          // bitstream cursor (bits)

// Work buffers (spectra, time samples, PCM) per channel.
int qL[576]; int qR[576];
int spL[576]; int spR[576];
int tsL[576]; int tsR[576];
int pcmL[576]; int pcmR[576];

// Filterbank and IMDCT persistent state per channel.
int fifoL[512]; int fifoR[512];
int overL[576]; int overR[576];

int chkL = 0;
int chkR = 0;

// getbits reads n (1..16) bits MSB-first from the packed bitstream.
int getbits(int n) {
  int w = bs_pos >> 5;
  int off = bs_pos & 31;
  int avail = 32 - off;
  int val;
  if (n <= avail) {
    val = (bitstream[w] >> (avail - n)) & ((1 << n) - 1);
  } else {
    int rem = n - avail;
    int hi = bitstream[w] & ((1 << avail) - 1);
    int lo = (bitstream[w + 1] >> (32 - rem)) & ((1 << rem) - 1);
    val = (hi << rem) | lo;
  }
  bs_pos += n;
  return val;
}

// decode_coef decodes one VLC-coded quantized coefficient.
int decode_coef() {
  int mag;
  int s;
  if (getbits(1) == 0) return 0;
  if (getbits(1) == 0) {
    mag = getbits(4);
    s = getbits(1);
    return s ? -mag : mag;
  }
  mag = getbits(8);
  s = getbits(1);
  return s ? -mag : mag;
}

// huffman_granule fills one channel's 576 quantized coefficients.
void huffman_granule(int q[]) {
  int i;
  for (i = 0; i < 576; i++) q[i] = decode_coef();
}

// dequant applies the nonlinear requantization with the granule gain.
void dequant_granule(int q[], int sp[], int gain) {
  int i;
  for (i = 0; i < 576; i++) {
    int v = q[i];
    int a = v < 0 ? -v : v;
    int p = a * a;
    p = (p * gain) >> 12;
    sp[i] = v < 0 ? -p : p;
  }
}

// stereo_ms reconstructs left/right from mid/side when the flag is set.
void stereo_ms(int l[], int r[], int ms) {
  int i;
  if (ms == 0) return;
  for (i = 0; i < 576; i++) {
    int m = l[i];
    int s = r[i];
    l[i] = (m + s) >> 1;
    r[i] = (m - s) >> 1;
  }
}

// alias_reduce applies the 8-coefficient butterflies across subband
// boundaries.
void alias_reduce(int sp[]) {
  int sb;
  int i;
  for (sb = 1; sb < 32; sb++) {
    int b0 = sb * 18;
    for (i = 0; i < 8; i++) {
      int a = sp[b0 - 1 - i];
      int b = sp[b0 + i];
      sp[b0 - 1 - i] = (a * csa_cs[i] - b * csa_ca[i]) >> 14;
      sp[b0 + i] = (b * csa_cs[i] + a * csa_ca[i]) >> 14;
    }
  }
}

`)
	// The hot kernels are emitted with their inner reduction loops fully
	// unrolled, as an optimizing compiler would: this yields the large
	// straight-line basic blocks the estimation technique targets, and a
	// realistic code footprint (several KB) so the i-cache sweep of the
	// evaluation actually exercises capacity misses.
	sb.WriteString(`
// imdct_granule transforms 32 subbands x 18 spectral lines into 18 time
// slots of 32 subband samples with 50% overlap-add. The 18-term reduction
// is fully unrolled.
void imdct_granule(int sp[], int ts[], int over[]) {
  int sb;
  int n;
  for (sb = 0; sb < 32; sb++) {
    int base = sb * 18;
    for (n = 0; n < 36; n++) {
      int row = n * 18;
      int acc = sp[base] * imdcttab[row] >> 14;
`)
	for k := 1; k < 18; k++ {
		fmt.Fprintf(sb, "      acc += sp[base + %d] * imdcttab[row + %d] >> 14;\n", k, k)
	}
	sb.WriteString(`      acc = acc * win36[n] >> 14;
      if (n < 18) {
        ts[n * 32 + sb] = acc + over[base + n];
      } else {
        over[base + n - 18] = acc;
      }
    }
  }
}

// dct32 computes the 32-point transform of one time slot; the 32-term
// reduction is fully unrolled.
void dct32(int s[], int sIdx, int v[]) {
  int i;
  for (i = 0; i < 32; i++) {
    int row = i * 32;
    int acc = s[sIdx] * dct32tab[row] >> 14;
`)
	for k := 1; k < 32; k++ {
		fmt.Fprintf(sb, "    acc += s[sIdx + %d] * dct32tab[row + %d] >> 14;\n", k, k)
	}
	sb.WriteString(`    v[i] = acc >> 6;
  }
}

// filtercore runs the synthesis filterbank on one granule: per time slot a
// DCT32, a 32-sample shift into the 512-entry FIFO (unrolled x8), and the
// 16-tap windowed polyphase sum per output sample (unrolled).
void filtercore(int ts[], int pcm[], int fifo[]) {
  int slot;
  int i;
  int v[32];
  for (slot = 0; slot < 18; slot++) {
    dct32(ts, slot * 32, v);
    for (i = 511; i >= 39; i -= 8) {
`)
	for u := 0; u < 8; u++ {
		fmt.Fprintf(sb, "      fifo[i - %d] = fifo[i - %d];\n", u, u+32)
	}
	sb.WriteString(`    }
    for (i = 0; i < 32; i++) fifo[i] = v[i];
    for (i = 0; i < 32; i++) {
      int acc = fifo[i] * wintab[i] >> 15;
`)
	for m := 1; m < 16; m++ {
		fmt.Fprintf(sb, "      acc += fifo[i + %d] * wintab[i + %d] >> 15;\n", m*32, m*32)
	}
	sb.WriteString(`      pcm[slot * 32 + i] = acc;
    }
  }
}

// checksum folds a granule of PCM into a rolling checksum and emits every
// 37th sample for fine-grained comparison.
int checksum(int pcm[], int chk) {
  int i;
  for (i = 0; i < 576; i++) {
    chk = chk * 31 + pcm[i];
    if (i % 37 == 0) out(pcm[i]);
  }
  return chk;
}
`)
}

// writeMP3Main emits the processor process for the given mapping.
func writeMP3Main(sb *strings.Builder, cfg MP3Config, leftHW, rightHW int) {
	sb.WriteString(`
void main() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    int gainL = 32 + getbits(5);
    int gainR = 32 + getbits(5);
    int ms = getbits(1);
    huffman_granule(qL);
    huffman_granule(qR);
    dequant_granule(qL, spL, gainL);
    dequant_granule(qR, spR, gainR);
    stereo_ms(spL, spR, ms);
    alias_reduce(spL);
    alias_reduce(spR);
`)
	// Dispatch the left channel to hardware first, then work on (or
	// dispatch) the right channel, and only then collect the left PCM:
	// this overlaps the hardware pipelines with the processor, which is
	// how the mappings actually reduce decode time.
	switch leftHW {
	case 1:
		fmt.Fprintf(sb, `    imdct_granule(spL, tsL, overL);
    send(%d, tsL, 576);
`, ChFCLIn)
	case 2:
		fmt.Fprintf(sb, "    send(%d, spL, 576);\n", ChIMLIn)
	}
	switch rightHW {
	case 0:
		sb.WriteString(`    imdct_granule(spR, tsR, overR);
    filtercore(tsR, pcmR, fifoR);
`)
	case 1:
		fmt.Fprintf(sb, `    imdct_granule(spR, tsR, overR);
    send(%d, tsR, 576);
`, ChFCRIn)
	case 2:
		fmt.Fprintf(sb, "    send(%d, spR, 576);\n", ChIMRIn)
	}
	switch leftHW {
	case 0:
		sb.WriteString(`    imdct_granule(spL, tsL, overL);
    filtercore(tsL, pcmL, fifoL);
`)
	default:
		fmt.Fprintf(sb, "    recv(%d, pcmL, 576);\n", ChFCLOut)
	}
	if rightHW != 0 {
		fmt.Fprintf(sb, "    recv(%d, pcmR, 576);\n", ChFCROut)
	}
	sb.WriteString(`    chkL = checksum(pcmL, chkL);
    chkR = checksum(pcmR, chkR);
  }
  out(chkL);
  out(chkR);
}
`)
}

// writeMP3HWProcs emits the custom-hardware processes for the mapping.
func writeMP3HWProcs(sb *strings.Builder, cfg MP3Config, leftHW, rightHW int) {
	if leftHW == 1 {
		fmt.Fprintf(sb, `
void fc_left_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, tsL, 576);
    filtercore(tsL, pcmL, fifoL);
    send(%d, pcmL, 576);
  }
}
`, ChFCLIn, ChFCLOut)
	}
	if leftHW == 2 {
		fmt.Fprintf(sb, `
void imdct_left_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, spL, 576);
    imdct_granule(spL, tsL, overL);
    send(%d, tsL, 576);
  }
}

void fc_left_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, tsL, 576);
    filtercore(tsL, pcmL, fifoL);
    send(%d, pcmL, 576);
  }
}
`, ChIMLIn, ChFCLIn, ChFCLIn, ChFCLOut)
	}
	if rightHW == 1 {
		fmt.Fprintf(sb, `
void fc_right_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, tsR, 576);
    filtercore(tsR, pcmR, fifoR);
    send(%d, pcmR, 576);
  }
}
`, ChFCRIn, ChFCROut)
	}
	if rightHW == 2 {
		fmt.Fprintf(sb, `
void imdct_right_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, spR, 576);
    imdct_granule(spR, tsR, overR);
    send(%d, tsR, 576);
  }
}

void fc_right_hw() {
  int g;
  for (g = 0; g < NGRANULES; g++) {
    recv(%d, tsR, 576);
    filtercore(tsR, pcmR, fifoR);
    send(%d, pcmR, 576);
  }
}
`, ChIMRIn, ChFCRIn, ChFCRIn, ChFCROut)
	}
}
