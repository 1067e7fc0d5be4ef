package apps

import (
	"strings"
	"testing"

	"ese/internal/interp"
	"ese/internal/pum"
	"ese/internal/tlm"
)

const testLimit = 200_000_000

func TestMP3SourceCompiles(t *testing.T) {
	for _, design := range MP3DesignNames {
		prog, err := CompileMP3(design, MP3Config{Frames: 1, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if prog.NumInstrs() < 300 {
			t.Fatalf("%s: suspiciously small program (%d instrs)", design, prog.NumInstrs())
		}
	}
}

// swReference decodes with the plain interpreter on the SW variant.
func swReference(t *testing.T, cfg MP3Config) []int32 {
	t.Helper()
	prog, err := CompileMP3("SW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	m.Limit = testLimit
	if err := m.Run("main"); err != nil {
		t.Fatalf("SW decode: %v", err)
	}
	return append([]int32(nil), m.Out...)
}

func TestMP3DecodeProducesOutput(t *testing.T) {
	cfg := MP3Config{Frames: 1, Seed: 42}
	outStream := swReference(t, cfg)
	// 2 granules x 2 channels x (16 samples + nothing) + 2 final checksums.
	wantLen := 2*2*16 + 2
	if len(outStream) != wantLen {
		t.Fatalf("out stream length = %d, want %d", len(outStream), wantLen)
	}
	// The decode must not be trivially zero.
	nonzero := 0
	for _, v := range outStream {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(outStream)/4 {
		t.Fatalf("output mostly zero (%d/%d nonzero): %v", nonzero, len(outStream), outStream)
	}
}

func TestMP3SeedChangesOutput(t *testing.T) {
	a := swReference(t, MP3Config{Frames: 1, Seed: 1})
	b := swReference(t, MP3Config{Frames: 1, Seed: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decodes")
	}
}

// TestAllDesignsFunctionallyIdentical is the keystone invariant: every
// hardware mapping decodes exactly the same PCM as the pure-software
// design, on the functional TLM.
func TestAllDesignsFunctionallyIdentical(t *testing.T) {
	cfg := MP3Config{Frames: 1, Seed: 42}
	ref := swReference(t, cfg)
	mb := pum.MicroBlaze()
	for _, design := range MP3DesignNames {
		d, err := MP3Design(design, cfg, mb, pum.CacheCfg{ISize: 8 * 1024, DSize: 4 * 1024})
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		res, err := tlm.Run(d, tlm.Options{StepLimit: testLimit})
		if err != nil {
			t.Fatalf("%s: functional TLM: %v", design, err)
		}
		got := res.OutByPE["mb"]
		if len(got) != len(ref) {
			t.Fatalf("%s: out length %d, want %d", design, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", design, i, got[i], ref[i])
			}
		}
	}
}

func TestMP3DesignShapes(t *testing.T) {
	cfg := MP3Config{Frames: 1, Seed: 3}
	wantPEs := map[string]int{"SW": 1, "SW+1": 2, "SW+2": 3, "SW+4": 5}
	for design, n := range wantPEs {
		d, err := MP3Design(design, cfg, pum.MicroBlaze(), pum.CacheCfg{ISize: 2048, DSize: 2048})
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if len(d.PEs) != n {
			t.Fatalf("%s: %d PEs, want %d", design, len(d.PEs), n)
		}
		if design == "SW+4" {
			chans := d.Channels()
			if len(chans) != 6 {
				t.Fatalf("SW+4 channels = %d, want 6", len(chans))
			}
		}
	}
}

func TestBitstreamRoundTrip(t *testing.T) {
	// The writer and the in-language getbits/decode_coef must agree; check
	// via a tiny dedicated program that decodes a known sequence.
	w := &bitWriter{}
	vals := []int{0, 1, -1, 15, -15, 16, 255, -200, 0, 7}
	for _, v := range vals {
		w.putCoef(v)
	}
	w.flush()
	w.words = append(w.words, 0, 0)

	var srcBuilder strings.Builder
	srcBuilder.WriteString("int NGRANULES = 1;\n")
	writeUintArray(&srcBuilder, "bitstream", w.words)
	srcBuilder.WriteString(`
int bs_pos = 0;
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
void main() {
  int i;
  for (i = 0; i < 10; i++) out(decode_coef());
}
`)
	prog, err := Compile("vlc.c", srcBuilder.String())
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	if err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if m.Out[i] != int32(v) {
			t.Fatalf("coef %d decoded as %d, want %d (all: %v)", i, m.Out[i], v, m.Out)
		}
	}
}

func TestMP3TrainDiffersFromEval(t *testing.T) {
	// Calibration honesty: the training workload must not be the
	// evaluation workload.
	if DefaultMP3.Seed == TrainMP3.Seed && DefaultMP3.Frames == TrainMP3.Frames {
		t.Fatal("training and evaluation configs identical")
	}
}
