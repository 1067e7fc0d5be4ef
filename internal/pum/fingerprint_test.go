package pum

import (
	"encoding/hex"
	"testing"
)

// TestDatapathFingerprintStableUnderRetarget: WithCache swaps the
// statistical memory model but not the datapath, so the datapath hash —
// the Algorithm 1 cache key component — must not move, while the
// statistical hash must.
func TestDatapathFingerprintStableUnderRetarget(t *testing.T) {
	base := MicroBlaze()
	baseDP, baseST := base.DatapathFingerprint(), base.StatFingerprint()
	for _, cc := range StandardCacheConfigs {
		m, err := base.WithCache(cc)
		if err != nil {
			t.Fatalf("WithCache(%d/%d): %v", cc.ISize, cc.DSize, err)
		}
		if m.DatapathFingerprint() != baseDP {
			t.Errorf("cache %d/%d: datapath fingerprint changed", cc.ISize, cc.DSize)
		}
		if cc.ISize == 0 && cc.DSize == 0 {
			continue
		}
		if m.StatFingerprint() == baseST {
			t.Errorf("cache %d/%d: statistical fingerprint did not change", cc.ISize, cc.DSize)
		}
	}
}

// TestFingerprintsDifferAcrossModels: distinct datapaths hash apart.
func TestFingerprintsDifferAcrossModels(t *testing.T) {
	models := []*PUM{MicroBlaze(), DualIssue(), CustomHW("hw", 100_000_000)}
	for i, a := range models {
		for _, b := range models[i+1:] {
			if a.DatapathFingerprint() == b.DatapathFingerprint() {
				t.Errorf("%s and %s share a datapath fingerprint", a.Name, b.Name)
			}
		}
	}
}

// TestFingerprintDeterministic: repeated hashing of one model is stable
// (the op table is a map; iteration order must not leak into the hash).
func TestFingerprintDeterministic(t *testing.T) {
	m := MicroBlaze()
	dp, st := m.DatapathFingerprint(), m.StatFingerprint()
	for i := 0; i < 10; i++ {
		if m.DatapathFingerprint() != dp {
			t.Fatal("datapath fingerprint unstable")
		}
		if m.StatFingerprint() != st {
			t.Fatal("statistical fingerprint unstable")
		}
	}
}

// TestFingerprintSeesStructuralEdits: editing an op mapping or an FU
// quantity must change the datapath hash.
func TestFingerprintSeesStructuralEdits(t *testing.T) {
	a := MicroBlaze()
	b := MicroBlaze()
	if a.DatapathFingerprint() != b.DatapathFingerprint() {
		t.Fatal("two fresh MicroBlaze models hash apart")
	}
	for cls, oi := range b.Ops {
		oi.Demand++
		b.Ops[cls] = oi
		break
	}
	if a.DatapathFingerprint() == b.DatapathFingerprint() {
		t.Error("editing an op demand did not change the datapath fingerprint")
	}
}

// TestFingerprintDigestsPinned pins the built-in models' digests: the
// hashed bytes are the cache's keys, so a change to how they are written
// (or buffered) must not change a single one.
func TestFingerprintDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		p        *PUM
		dp, stat string
	}{
		{MicroBlaze(),
			"841f2c01c92ac7fdc5caadac847e626956510df719d6451f7f8e11f4e56c25aa",
			"57bde7245ae301cc29467dd94635da08dc41c97c81885546a28d92bdeec5c702"},
		{CustomHW("hw", 100_000_000),
			"478963babd77d7dfc98e8e6a296f51522293b144b26655b659943406c515d114",
			"2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4"},
		{DualIssue(),
			"13beeddf328ade6a679dfc5e3365d25318e3c474a6b4ccf2cffa4d02be656810",
			"57bde7245ae301cc29467dd94635da08dc41c97c81885546a28d92bdeec5c702"},
	} {
		dp, st := tc.p.DatapathFingerprint(), tc.p.StatFingerprint()
		if got := hex.EncodeToString(dp[:]); got != tc.dp {
			t.Errorf("%s: DatapathFingerprint = %s, want %s", tc.p.Name, got, tc.dp)
		}
		if got := hex.EncodeToString(st[:]); got != tc.stat {
			t.Errorf("%s: StatFingerprint = %s, want %s", tc.p.Name, got, tc.stat)
		}
	}
}
