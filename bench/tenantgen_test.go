package main

import (
	"testing"

	"ese/internal/apps"
	"ese/internal/interp"
)

// TestTenantPrograms checks 3 seeds × 200 generated tenant programs: each
// compiles, runs on the compiled tier within tenantSteps, is generated
// byte-identically again from its seed, and has a code fingerprint no
// other program shares — so every esed_mixed estimate request really
// misses the schedule cache.
func TestTenantPrograms(t *testing.T) {
	seen := map[string]uint64{}
	for base := uint64(1); base <= 3; base++ {
		for i := uint64(0); i < 200; i++ {
			seed := base<<32 | i
			src := tenantProgram(seed)
			if again := tenantProgram(seed); again != src {
				t.Fatalf("seed %#x: generated source differs between calls", seed)
			}
			prog, err := apps.Compile("tenant.c", src)
			if err != nil {
				t.Fatalf("seed %#x: %v\n%s", seed, err, src)
			}
			m, err := interp.NewEngine(prog, interp.EngineCompiled)
			if err != nil {
				t.Fatalf("seed %#x: compiled engine: %v", seed, err)
			}
			m.SetLimit(tenantSteps)
			if err := m.Run("main"); err != nil {
				t.Fatalf("seed %#x: run: %v\n%s", seed, err, src)
			}
			if n := m.StepCount(); n == 0 || n > tenantSteps {
				t.Fatalf("seed %#x: %d steps, want 1..%d", seed, n, tenantSteps)
			}
			fp := prog.CodeFingerprint().Hex()
			if other, dup := seen[fp]; dup {
				t.Fatalf("seeds %#x and %#x share code fingerprint %s", other, seed, fp)
			}
			seen[fp] = seed
		}
	}
}
