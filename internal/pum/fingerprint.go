package pum

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"ese/internal/cdfg"
)

// Fingerprint is a canonical content hash of one PUM sub-model group, used
// as a content-addressed cache key by the estimation pipeline.
type Fingerprint [sha256.Size]byte

// String returns a short hex form for logs and debugging.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// fpw is a fingerprint's canonical little-endian bytes, collected in one
// buffer and hashed once by sum. Writers return the extended buffer, so a
// buffer started in stack scratch stays there.
type fpw []byte

func (w fpw) int(v int64) fpw { return binary.LittleEndian.AppendUint64(w, uint64(v)) }

func (w fpw) float(v float64) fpw { return w.int(int64(math.Float64bits(v))) }

func (w fpw) str(s string) fpw { return append(w.int(int64(len(s))), s...) }

func (w fpw) bool(b bool) fpw {
	if b {
		return w.int(1)
	}
	return w.int(0)
}

func (w fpw) sum() Fingerprint { return sha256.Sum256(w) }

// DatapathFingerprint hashes the sub-models Algorithm 1 consumes: the
// scheduling policy, the issue pipelines, the functional units, and the
// operation mapping table. Two PUMs with equal datapath fingerprints
// schedule every block identically, whatever their statistical sub-models
// say — so the fingerprint is stable across WithCache retargets and
// calibration, which is what keys the schedule cache.
func (p *PUM) DatapathFingerprint() Fingerprint {
	var scratch [1024]byte
	w := fpw(scratch[:0])
	w = w.int(int64(p.Policy))
	w = w.int(int64(len(p.Pipelines)))
	for _, pl := range p.Pipelines {
		w = w.int(int64(len(pl.Stages)))
		w = w.int(int64(pl.IssueWidth))
	}
	w = w.int(int64(len(p.FUs)))
	for _, fu := range p.FUs {
		w = w.str(fu.ID)
		w = w.int(int64(fu.Quantity))
	}
	// Iterate the op table in class order so the hash is independent of
	// map iteration order.
	for cls := cdfg.Class(0); cls <= cdfg.ClassIO; cls++ {
		info, ok := p.Ops[cls]
		if !ok {
			w = w.int(-1)
			continue
		}
		w = w.int(int64(cls))
		w = w.int(int64(info.Demand))
		w = w.int(int64(info.Commit))
		w = w.int(int64(len(info.Stages)))
		for _, su := range info.Stages {
			w = w.str(su.FU)
			w = w.int(int64(su.Cycles))
		}
	}
	return w.sum()
}

// StatFingerprint hashes the statistical sub-models Algorithm 2 layers on
// top of the schedule: the branch delay model, the currently selected
// memory statistics, and the pipelined flag that gates branch penalties.
// Retargeting the cache configuration or recalibrating changes this
// fingerprint but not the datapath one.
func (p *PUM) StatFingerprint() Fingerprint {
	var scratch [13 * 8]byte
	w := fpw(scratch[:0])
	w = w.bool(p.Pipelined)
	w = w.float(p.Branch.MissRate)
	w = w.float(p.Branch.Penalty)
	w = w.bool(p.Mem.HasICache)
	w = w.bool(p.Mem.HasDCache)
	w = w.float(p.Mem.ExtLatency)
	st := p.Mem.Current
	w = w.float(st.IHitRate)
	w = w.float(st.DHitRate)
	w = w.float(st.IHitDelay)
	w = w.float(st.DHitDelay)
	w = w.float(st.IMissPenalty)
	w = w.float(st.DMissPenalty)
	return w.sum()
}
