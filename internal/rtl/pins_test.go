package rtl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ese/internal/apps"
	"ese/internal/platform"
	"ese/internal/pum"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/board_pins.json from one RunBoard per configuration and testdata/iss_pins.json from ISSCycles")

// The pinned workload: every MP3 and JPEG design at the standard cache
// configurations, on a small input.
const (
	pinFrames = 1
	pinBlocks = 8
)

// pePin is every PEResult field of one PE, with the out stream as a digest.
type pePin struct {
	Name       string       `json:"name"`
	Cycles     uint64       `json:"cycles"`
	OutSHA256  string       `json:"out_sha256"`
	Steps      uint64       `json:"steps"`
	Mem        pum.MemStats `json:"mem"`
	BranchMiss float64      `json:"branch_miss"`
}

// boardPin is every BoardResult field of one board run but its wall time.
type boardPin struct {
	App    string  `json:"app"`
	Design string  `json:"design"`
	ISize  int     `json:"isize"`
	DSize  int     `json:"dsize"`
	EndPs  uint64  `json:"end_ps"`
	Steps  uint64  `json:"steps"`
	PEs    []pePin `json:"pes"`
}

// pinDesign maps one pinned (app, design) workload at cc.
func pinDesign(t *testing.T, app, design string, cc pum.CacheCfg) *platform.Design {
	t.Helper()
	var d *platform.Design
	var err error
	if app == "jpeg" {
		d, err = apps.JPEGDesign(design, apps.JPEGConfig{Blocks: pinBlocks, Seed: apps.DefaultJPEG.Seed}, pum.MicroBlaze(), cc)
	} else {
		d, err = apps.MP3Design(design, apps.MP3Config{Frames: pinFrames, Seed: apps.DefaultMP3.Seed}, pum.MicroBlaze(), cc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pinOf records br, the board run of d, in PE order.
func pinOf(app, design string, cc pum.CacheCfg, d *platform.Design, br *BoardResult) boardPin {
	p := boardPin{App: app, Design: design, ISize: cc.ISize, DSize: cc.DSize, EndPs: uint64(br.EndPs), Steps: br.Steps}
	for _, pe := range d.PEs {
		r := br.PEs[pe.Name]
		buf := make([]byte, 4*len(r.Out))
		for i, v := range r.Out {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		sum := sha256.Sum256(buf)
		p.PEs = append(p.PEs, pePin{Name: r.Name, Cycles: r.Cycles, OutSHA256: hex.EncodeToString(sum[:]),
			Steps: r.Steps, Mem: r.Mem, BranchMiss: r.BranchMiss})
	}
	return p
}

type pinWorkload struct{ app, design string }

func pinWorkloads() []pinWorkload {
	var ws []pinWorkload
	for _, d := range apps.MP3DesignNames {
		ws = append(ws, pinWorkload{"mp3", d})
	}
	for _, d := range apps.JPEGDesignNames {
		ws = append(ws, pinWorkload{"jpeg", d})
	}
	return ws
}

const pinsPath = "testdata/board_pins.json"

// loadPins reads the pinned board results, keyed by app/design/config.
func loadPins(t *testing.T) map[string]boardPin {
	t.Helper()
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []boardPin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]boardPin, len(pins))
	for _, p := range pins {
		byKey[pinKey(p.App, p.Design, pum.CacheCfg{ISize: p.ISize, DSize: p.DSize})] = p
	}
	return byKey
}

func pinKey(app, design string, cc pum.CacheCfg) string {
	return app + "/" + design + "/" + cc.String()
}

// TestBoardMatchesPinsOneConfigAtATime runs every pinned workload one
// configuration at a time and checks each result field by field against
// the pins. With -update-pins it rewrites the pins instead.
func TestBoardMatchesPinsOneConfigAtATime(t *testing.T) {
	var pins map[string]boardPin
	if !*updatePins {
		pins = loadPins(t)
	}
	var fresh []boardPin
	for _, w := range pinWorkloads() {
		for _, cc := range pum.StandardCacheConfigs {
			d := pinDesign(t, w.app, w.design, cc)
			br, err := RunBoard(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := pinOf(w.app, w.design, cc, d, br)
			fresh = append(fresh, got)
			if pins != nil {
				checkPin(t, pins, got)
			}
		}
	}
	if *updatePins {
		data, err := json.MarshalIndent(fresh, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPin compares got with the pin of the same key.
func checkPin(t *testing.T, pins map[string]boardPin, got boardPin) {
	t.Helper()
	key := pinKey(got.App, got.Design, pum.CacheCfg{ISize: got.ISize, DSize: got.DSize})
	want, ok := pins[key]
	if !ok {
		t.Fatalf("%s: no pinned result", key)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("%s: board result differs from the pin\n got  %s\n want %s", key, gj, wj)
	}
}
