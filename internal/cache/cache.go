// Package cache implements a set-associative, write-allocate cache
// simulator with age-counter replacement. It is the memory-hierarchy
// substrate of the cycle-accurate board model and of PUM calibration: the
// statistical hit rates in the processing unit model are profiled against
// these caches.
package cache

// Config describes one cache.
type Config struct {
	Size      int // total bytes; 0 disables the cache (every access misses)
	LineBytes int // line size in bytes
	Assoc     int // ways per set
}

// DefaultLine is the line size used across the board model.
const DefaultLine = 16

// BoardConfig is the board's cache organization for a given size: 2-way
// set-associative with DefaultLine-byte lines (size 0 = uncached). The
// board's processor PEs and calibration build their caches from it.
func BoardConfig(size int) Config {
	return Config{Size: size, LineBytes: DefaultLine, Assoc: 2}
}

// Cache is one direct-mapped or set-associative cache. Its state is one
// flat array of ways indexed set*Assoc+way, so a set's tags, valid bits and
// ages share host cache lines.
//
// Replacement: a miss fills the set's first invalid way, else evicts the
// way with the highest age counter (the last such way on ties), and a
// touch ages every way younger than the touched one and makes it age 0.
// This was meant as true LRU, but a newly filled way starts at age 0
// instead of the oldest age, so no counter ever advances: once a set is
// full, every miss replaces its last way. The board's cycle counts and
// the committed baselines are measured with this policy.
//
// Touching the line of the previous access again changes no state at all
// (that line has age 0 in its set, and every other set is untouched), so
// Access answers it from a one-line MRU marker without indexing the
// arrays.
//
// A Cache must come from New.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	ways     []way
	mru      uint64 // line number of the previous access, else noMRU

	Accesses uint64
	Misses   uint64
}

// New builds a cache; a non-positive size returns a cache where every
// access misses (the uncached configuration).
//
// Degenerate configurations are normalized rather than trusted verbatim,
// so the allocated geometry never exceeds the configured size and the
// address decomposition always agrees with the capacity math:
//
//   - a non-positive or non-power-of-two LineBytes is replaced by
//     DefaultLine / rounded down to the previous power of two (the line
//     shift `lineBits` and the Size/LineBytes capacity division would
//     otherwise disagree, aliasing distinct lines onto one set+tag);
//   - LineBytes is clamped to at most the previous power of two of Size,
//     so even a tiny cache holds at least one full line within budget;
//   - a non-positive Assoc becomes direct-mapped (1), and Assoc is
//     clamped to the total line count — a Size smaller than
//     LineBytes*Assoc used to silently allocate a 1-set × Assoc-way
//     cache *larger* than configured.
//
// The effective geometry is readable via Config().
func New(cfg Config) *Cache {
	if cfg.Size <= 0 {
		return &Cache{cfg: Config{Size: 0, LineBytes: 0, Assoc: 0}, mru: noMRU}
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = DefaultLine
	}
	cfg.LineBytes = prevPow2(cfg.LineBytes)
	if cfg.LineBytes > cfg.Size {
		cfg.LineBytes = prevPow2(cfg.Size)
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 1
	}
	lines := cfg.Size / cfg.LineBytes // >= 1 after the clamps above
	if cfg.Assoc > lines {
		cfg.Assoc = lines
	}
	c := &Cache{cfg: cfg, mru: noMRU}
	c.sets = lines / cfg.Assoc
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	c.ways = make([]way, c.sets*cfg.Assoc)
	return c
}

// way is one cache way.
type way struct {
	tag   uint32 // meaningful when valid
	valid bool
	age   uint8 // lower value = more recently used
}

// noMRU is the MRU marker of a cache with no resident line: beyond every
// 32-bit line number, so it matches no access.
const noMRU = 1 << 32

// prevPow2 returns the largest power of two <= v (v must be >= 1).
func prevPow2(v int) int {
	p := 1
	for p <= v/2 {
		p <<= 1
	}
	return p
}

// Config returns the effective (normalized) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Capacity returns the allocated capacity in bytes (sets × ways × line).
func (c *Cache) Capacity() int { return c.sets * c.cfg.Assoc * c.cfg.LineBytes }

// Enabled reports whether the cache holds any lines.
func (c *Cache) Enabled() bool { return c.sets > 0 }

// Access simulates one access to the byte address and reports whether it
// hit. Misses allocate the line (write-allocate for stores as well). The
// MRU check is small enough to inline into callers' loops.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	if uint64(addr>>c.lineBits) == c.mru {
		return true
	}
	return c.lookup(addr)
}

// lookup is Access past the MRU check.
func (c *Cache) lookup(addr uint32) bool {
	line := addr >> c.lineBits
	if c.sets == 0 {
		c.Misses++
		return false
	}
	c.mru = uint64(line)
	set, tag := line%uint32(c.sets), line/uint32(c.sets)
	base := int(set) * c.cfg.Assoc
	ways := c.ways[base : base+c.cfg.Assoc]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			touch(ways, w)
			return true
		}
	}
	c.Misses++
	// Choose victim: first invalid way, else the highest age counter.
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		worst := uint8(0)
		victim = 0
		for w := range ways {
			if ways[w].age >= worst {
				worst = ways[w].age
				victim = w
			}
		}
	}
	ways[victim].valid = true
	ways[victim].tag = tag
	touch(ways, victim)
	return false
}

// touch marks way w of a set's ways most-recently-used.
func touch(ways []way, w int) {
	cur := ways[w].age
	for i := range ways {
		if ways[i].age < cur {
			ways[i].age++
		}
	}
	ways[w].age = 0
}

// HitRate returns the observed hit rate (1.0 when no accesses were made,
// matching the optimistic default of an idle statistics source).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 1.0
	}
	return 1.0 - float64(c.Misses)/float64(c.Accesses)
}

// ResetStats clears the counters but keeps cache contents.
func (c *Cache) ResetStats() {
	c.Accesses = 0
	c.Misses = 0
}

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	clear(c.ways)
	c.mru = noMRU
	c.ResetStats()
}
