package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ese/internal/jobspec"
)

// digestHex is the digest form golden.json stores: the first 64 bits of a
// sha256, in hex.
func digestHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// canonResult is the host-independent part of a job result: everything
// that must not change when only host speed changes. Elapsed and wall
// times, fingerprints and diagnostics are left out.
type canonResult struct {
	Kind    string                  `json:"kind"`
	Model   string                  `json:"model,omitempty"`
	Blocks  []jobspec.BlockEstimate `json:"blocks,omitempty"`
	TLM     *canonTLM               `json:"tlm,omitempty"`
	Profile json.RawMessage         `json:"profile,omitempty"`
}

type canonTLM struct {
	EndPs        uint64             `json:"end_ps"`
	BusCycles    uint64             `json:"bus_cycles"`
	CyclesByPE   map[string]uint64  `json:"cycles_by_pe"`
	SwitchesByPE map[string]uint64  `json:"switches_by_pe"`
	OutByPE      map[string][]int32 `json:"out_by_pe"`
	BusWords     uint64             `json:"bus_words"`
	Steps        uint64             `json:"steps"`
}

// resultDigest hashes the host-independent parts of one job result. The
// profile is compacted first, so a result decoded from esed's indented
// HTTP body hashes like the in-process one.
func resultDigest(r *jobspec.Result) (string, error) {
	c := canonResult{Kind: r.Kind, Model: r.Model}
	if len(r.Blocks) > 0 {
		c.Blocks = r.Blocks
	}
	if t := r.TLM; t != nil {
		// The HTTP body omits empty maps; read both forms as empty.
		c.TLM = &canonTLM{
			EndPs: t.EndPs, BusCycles: t.BusCycles, CyclesByPE: t.CyclesByPE,
			SwitchesByPE: t.SwitchesByPE, OutByPE: t.OutByPE, BusWords: t.BusWords, Steps: t.Steps,
		}
		if len(t.CyclesByPE) == 0 {
			c.TLM.CyclesByPE = nil
		}
		if len(t.SwitchesByPE) == 0 {
			c.TLM.SwitchesByPE = nil
		}
		if len(t.OutByPE) == 0 {
			c.TLM.OutByPE = nil
		}
	}
	if len(r.Profile) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.Profile); err != nil {
			return "", fmt.Errorf("profile: %w", err)
		}
		c.Profile = buf.Bytes()
	}
	data, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return digestHex(data), nil
}

// chain folds per-operation digests, in order, into one page digest.
type chain struct{ buf bytes.Buffer }

func (c *chain) add(d string) { c.buf.WriteString(d); c.buf.WriteByte('\n') }

func (c *chain) sum() string { return digestHex(c.buf.Bytes()) }

// goldenFile is bench/golden.json: per workload, the digest of every page
// of its pool, indexed by page number.
type goldenFile map[string][]string

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func loadGolden(root string) (goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

// findRoot walks up from the working directory to the repository root
// (the directory holding the committed accuracy baseline).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCH_accuracy.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (BENCH_accuracy.json next to bench/) above the working directory")
		}
		dir = parent
	}
}
