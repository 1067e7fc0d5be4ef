package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is a plain model of the replacement policy Cache documents:
// per set a list of ways, filled in order; a miss in a full set evicts
// the way of highest age (the last such way on ties); a hit or fill makes
// the way age 0 and ages every way younger than it. It keeps the whole
// line number per way and has no MRU marker or flat arrays, so it checks
// both against the policy.
type refCache struct {
	lineBytes uint64
	sets      [][]refWay
	accesses  uint64
	misses    uint64
}

type refWay struct {
	valid bool
	line  uint64
	age   int
}

func newRef(cfg Config) *refCache {
	r := &refCache{}
	if cfg.Size == 0 {
		return r
	}
	r.lineBytes = uint64(cfg.LineBytes)
	r.sets = make([][]refWay, cfg.Size/cfg.LineBytes/cfg.Assoc)
	for s := range r.sets {
		r.sets[s] = make([]refWay, cfg.Assoc)
	}
	return r
}

func (r *refCache) access(addr uint32) bool {
	r.accesses++
	if len(r.sets) == 0 {
		r.misses++
		return false
	}
	line := uint64(addr) / r.lineBytes
	ways := r.sets[line%uint64(len(r.sets))]
	touch := func(w int) {
		for i := range ways {
			if ways[i].age < ways[w].age {
				ways[i].age++
			}
		}
		ways[w].age = 0
	}
	for w := range ways {
		if ways[w].valid && ways[w].line == line {
			touch(w)
			return true
		}
	}
	r.misses++
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w := range ways {
			if victim < 0 || ways[w].age >= ways[victim].age {
				victim = w
			}
		}
	}
	ways[victim] = refWay{valid: true, line: line, age: ways[victim].age}
	touch(victim)
	return false
}

func (r *refCache) flush() {
	for _, ways := range r.sets {
		clear(ways)
	}
	r.accesses, r.misses = 0, 0
}

// exactConfigs covers direct-mapped, set-associative and fully associative
// caches, 1-byte lines, set counts that are not powers of two, an Assoc
// above the line count (clamped by New) and the uncached cache.
var exactConfigs = []Config{
	{},
	{Size: 8, LineBytes: 1, Assoc: 2},
	{Size: 16, LineBytes: 1, Assoc: 64},
	{Size: 64, LineBytes: 16, Assoc: 8},
	{Size: 256, LineBytes: 16, Assoc: 1},
	{Size: 256, LineBytes: 16, Assoc: 2},
	{Size: 48, LineBytes: 16, Assoc: 1},
	{Size: 96, LineBytes: 16, Assoc: 2},
	{Size: 1024, LineBytes: 16, Assoc: 4},
	BoardConfig(2048),
	BoardConfig(8192),
}

// exactStreams are the address streams of the exactness test: random
// addresses over ranges from one set's worth to the whole address space,
// and adversarial ones — one address repeated (the MRU path), lines that
// conflict in one set, one more line than a set holds in rotation, a
// sequential sweep, and the top of the address space next to 0.
func exactStreams(rng *rand.Rand) map[string][]uint32 {
	streams := map[string][]uint32{}
	for _, mask := range []uint32{0x3F, 0xFFF, 0xFFFF, 0xFFFFFFFF} {
		s := make([]uint32, 4000)
		for i := range s {
			s[i] = rng.Uint32() & mask
		}
		streams[fmt.Sprintf("random&%#x", mask)] = s
	}
	var repeat, conflict, rotate, sweep, top []uint32
	for i := 0; i < 500; i++ {
		repeat = append(repeat, 0x1234)
		conflict = append(conflict, uint32(i%2)*4096, 0x40)
		rotate = append(rotate, uint32(i%9)*8192)
		sweep = append(sweep, uint32(i)*4)
		top = append(top, 0xFFFFFFFF, 0, 0xFFFFFFFF, 0xFFFFFFF0, 0xFFFFFFFF)
	}
	streams["repeat"], streams["conflict"], streams["rotate"] = repeat, conflict, rotate
	streams["sweep"], streams["top"] = sweep, top
	return streams
}

// TestCacheMatchesReference drives every stream through every
// configuration on a Cache and on the reference model, with a Flush and a
// ResetStats mid-stream, and requires the same hit or miss on every access
// and the same counters throughout.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, stream := range exactStreams(rng) {
		for _, cfg := range exactConfigs {
			c := New(cfg)
			ref := newRef(c.Config())
			flushAt, resetAt := len(stream)/3, 2*len(stream)/3
			for i, a := range stream {
				switch i {
				case flushAt:
					c.Flush()
					ref.flush()
				case resetAt:
					c.ResetStats()
					ref.accesses, ref.misses = 0, 0
				}
				if got, want := c.Access(a), ref.access(a); got != want {
					t.Fatalf("%s on %+v: access %d (%#x) hit=%v, reference %v", name, cfg, i, a, got, want)
				}
				if c.Accesses != ref.accesses || c.Misses != ref.misses {
					t.Fatalf("%s on %+v: after access %d counters %d/%d, reference %d/%d",
						name, cfg, i, c.Accesses, c.Misses, ref.accesses, ref.misses)
				}
			}
		}
	}
}

// TestMRUNeverMatchesEmptyCache: the first access after New or Flush
// misses whatever its line number, the largest (address 0xFFFFFFFF with
// 1-byte lines) and 0 included.
func TestMRUNeverMatchesEmptyCache(t *testing.T) {
	for _, cfg := range []Config{{Size: 8, LineBytes: 1, Assoc: 2}, BoardConfig(2048), {}} {
		for _, a := range []uint32{0, 0xFFFFFFFF} {
			c := New(cfg)
			if c.Access(a) {
				t.Fatalf("%+v: first access to %#x hit a new cache", cfg, a)
			}
			c.Flush()
			if c.Access(a) {
				t.Fatalf("%+v: first access to %#x hit after Flush", cfg, a)
			}
			if !c.Enabled() && c.Access(a) {
				t.Fatalf("%+v: repeated access to %#x hit the uncached cache", cfg, a)
			}
		}
	}
}
