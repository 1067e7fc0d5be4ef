package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toyBaseline is the smallest Baseline: rows keyed by name, measured at
// one size, each with a count that must not be negative.
type toyBaseline struct {
	Size int      `json:"size"`
	Rows []toyRow `json:"rows"`
}

type toyRow struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

func (b *toyBaseline) Workload() string { return fmt.Sprintf("size %d", b.Size) }

func (b *toyBaseline) RowKeys() ([]string, error) {
	keys := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		if r.Count < 0 {
			return nil, fmt.Errorf("row %q: negative count", r.Key)
		}
		keys[i] = r.Key
	}
	return keys, nil
}

var toyKnown = map[string]bool{"a": true, "b": true}

// Every way a baseline can be unusable is an input error (exit 2) that
// names what is wrong, whatever gate reads it.
func TestReadBaselineRejectsUnusableBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const good = `{"size":2,"rows":[{"key":"a","count":1},{"key":"b","count":2}]}`
	cases := []struct {
		name, path, wantErr string
	}{
		{"missing", filepath.Join(dir, "nope.json"), "no such file"},
		{"truncated", write("trunc.json", good[:len(good)/2]), "truncated"},
		{"empty object", write("empty.json", `{}`), "no rows"},
		{"unknown key", write("foreign.json", `{"size":2,"rows":[{"key":"z"}]}`), `unknown row "z"`},
		{"duplicate key", write("dup.json", `{"size":2,"rows":[{"key":"a"},{"key":"a"}]}`), `duplicate row "a"`},
		{"row check", write("neg.json", `{"size":2,"rows":[{"key":"b","count":-1}]}`), `row "b": negative count`},
	}
	for _, tc := range cases {
		err := ReadBaseline(tc.path, &toyBaseline{}, toyKnown)
		if err == nil {
			t.Fatalf("%s: baseline accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if code := ExitCode(err); code != ExitUsage {
			t.Errorf("%s: exit code %d, want %d", tc.name, code, ExitUsage)
		}
	}

	var b toyBaseline
	if err := ReadBaseline(write("good.json", good), &b, toyKnown); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	if b.Size != 2 || len(b.Rows) != 2 || b.Rows[1].Count != 2 {
		t.Fatalf("baseline decoded wrong: %+v", b)
	}
}

func TestSameWorkload(t *testing.T) {
	base := &toyBaseline{Size: 2}
	if err := SameWorkload("base.json", base, "size 2"); err != nil {
		t.Fatalf("same workload rejected: %v", err)
	}
	err := SameWorkload("base.json", base, "size 1")
	if code := ExitCode(err); code != ExitUsage {
		t.Fatalf("foreign workload: exit code %d (%v), want %d", code, err, ExitUsage)
	}
	if !strings.Contains(err.Error(), `"size 2"`) || !strings.Contains(err.Error(), `"size 1"`) {
		t.Errorf("foreign workload error %q names neither workload", err)
	}
}

// A record written by WriteRecord reads back through ReadBaseline, in the
// bytes MarshalRecord renders.
func TestWriteRecordRoundTrip(t *testing.T) {
	rec := toyBaseline{Size: 3, Rows: []toyRow{{Key: "a", Count: 7}}}
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := WriteRecord(path, &rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalRecord(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) || !strings.HasSuffix(string(data), "}\n") {
		t.Fatalf("record bytes %q, want %q", data, want)
	}
	var back toyBaseline
	if err := ReadBaseline(path, &back, toyKnown); err != nil || back.Workload() != "size 3" {
		t.Fatalf("read back %+v: %v", back, err)
	}
}

// Drift is a runtime failure (exit 1) that counts the violations; none is
// no error.
func TestDrift(t *testing.T) {
	if err := Drift("prog", "toy", "base.json", nil); err != nil {
		t.Fatalf("no violations: %v", err)
	}
	err := Drift("prog", "toy", "base.json", []string{"a: up", "b: down"})
	if code := ExitCode(err); code != ExitRuntime {
		t.Fatalf("drift: exit code %d (%v), want %d", code, err, ExitRuntime)
	}
	if want := "2 toy regression(s) against base.json"; err.Error() != want {
		t.Errorf("drift error %q, want %q", err, want)
	}
}
