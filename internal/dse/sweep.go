// Package dse is the design-space exploration engine: a declarative sweep
// description expanded into thousands of jobspec TLM jobs, executed by a
// work-sharded parallel runner against the shared content-addressed
// schedule/estimate cache, checkpointed per shard so a killed sweep
// resumes where it stopped, and collected into deterministic CSV/JSON
// tables plus a Pareto front over (simulated cycles, FU-area proxy,
// estimation effort).
//
// The package deliberately reuses the jobspec layer for everything
// job-shaped: each sweep point lowers to a jobspec.Spec, executes through
// a jobspec.Runner, and is identified by the spec's normalized
// fingerprint — the same identity under which the esed daemon coalesces
// jobs and the runner's cache shares schedules. Sweep points that agree
// on a sub-configuration (same datapath, different cache geometry; same
// design, different branch model) therefore hit the schedule cache
// instead of recomputing Algorithm 1; points of one workload share one
// lowered program, and from a workload's third point on the Runner
// replays its recorded transactions instead of interpreting the program.
// The Runner's workload memo fills each program and recording once, so
// its counters do not depend on the number of workers. Together these
// make a 7,680-point sweep take seconds.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ese/internal/apps"
	"ese/internal/jobspec"
)

// CacheGeom is one cache-geometry axis value (bytes; 0 = uncached).
type CacheGeom struct {
	I int `json:"i"`
	D int `json:"d"`
}

// Axes are the sweep dimensions. Empty axes collapse to a single "keep
// the stock value" element, so the zero Axes describes a one-point sweep
// of the base configuration. The expansion order is fixed (apps, designs,
// depths, issues, FU mixes, caches, branch miss, branch penalty — last
// axis fastest), which is what gives every point a stable index for
// sharding and resume.
type Axes struct {
	// Apps lists application corpora (default: mp3).
	Apps []string `json:"apps,omitempty"`
	// Designs lists SW/HW mappings (default: every design of each app).
	// A design invalid for one app in Apps is skipped for that app; a
	// design valid for none is a validation error.
	Designs []string `json:"designs,omitempty"`
	// Depths lists pipeline depths (0 = stock).
	Depths []int `json:"depths,omitempty"`
	// Issues lists issue widths (0 = stock).
	Issues []int `json:"issues,omitempty"`
	// FUMixes lists functional-unit quantity overrides (nil entry = stock).
	FUMixes []map[string]int `json:"fu_mixes,omitempty"`
	// Caches lists cache geometries (default: the 8k/4k flag default).
	Caches []CacheGeom `json:"caches,omitempty"`
	// BranchMiss lists branch misprediction ratios (default: keep).
	BranchMiss []float64 `json:"branch_miss,omitempty"`
	// BranchPenalty lists misprediction penalties (default: keep).
	BranchPenalty []float64 `json:"branch_penalty,omitempty"`
}

// Filter prunes the cartesian expansion.
type Filter struct {
	// MaxArea drops points whose FU-area proxy exceeds the bound (0 = no
	// bound).
	MaxArea float64 `json:"max_area,omitempty"`
}

// Sweep is the declarative description of one design-space exploration:
// fixed workload settings plus the axes to cross. Like jobspec.Spec it is
// plain data — JSON-codable, validatable, fingerprintable — and its
// fingerprint keys the on-disk resume state.
type Sweep struct {
	// Name labels outputs and the state directory (default "sweep").
	Name string `json:"name,omitempty"`
	// Frames sizes every point's workload (default 1, at most
	// jobspec.MaxFrames).
	Frames int `json:"frames,omitempty"`
	// Seed seeds every point's workload generator (0 = app default).
	Seed uint32 `json:"seed,omitempty"`
	// Engine is the TLM engine of every point (default timed).
	Engine string `json:"engine,omitempty"`
	// Calibrate fits the statistical models on the training workload once
	// per sweep (memoized by the Runner).
	Calibrate bool `json:"calibrate"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
	// Filter prunes the expansion.
	Filter *Filter `json:"filter,omitempty"`
	// Limit errors the expansion when it yields more points (0 = no
	// limit) — a guard against accidentally unbounded sweeps, not a
	// silent truncation.
	Limit int `json:"limit,omitempty"`
}

// ParseSweep decodes and validates a JSON sweep description. Unknown
// fields are rejected, mirroring jobspec.ParseJSON.
func ParseSweep(data []byte) (*Sweep, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dse: bad sweep: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("dse: trailing data after sweep body")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the sweep without expanding it.
func (s *Sweep) Validate() error {
	switch s.Engine {
	case "", jobspec.EngineFunctional, jobspec.EngineTimed:
	case jobspec.EngineBoard:
		return fmt.Errorf("dse: the board engine is not sweepable (one RTL run per point)")
	default:
		return fmt.Errorf("dse: unknown engine %q", s.Engine)
	}
	if s.Frames < 0 || s.Frames > jobspec.MaxFrames {
		return fmt.Errorf("dse: frames %d out of [0,%d]", s.Frames, jobspec.MaxFrames)
	}
	if s.Limit < 0 {
		return fmt.Errorf("dse: limit %d must be non-negative", s.Limit)
	}
	appNames := s.Axes.Apps
	if len(appNames) == 0 {
		appNames = []string{jobspec.AppMP3}
	}
	for _, app := range appNames {
		if apps.DesignNames(app) == nil {
			return fmt.Errorf("dse: unknown app %q", app)
		}
	}
	for _, d := range s.Axes.Designs {
		found := false
		for _, app := range appNames {
			for _, known := range apps.DesignNames(app) {
				if known == d {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("dse: design %q valid for none of the swept apps", d)
		}
	}
	for _, g := range s.Axes.Caches {
		if g.I < 0 || g.D < 0 {
			return fmt.Errorf("dse: negative cache geometry %+v", g)
		}
	}
	if f := s.Filter; f != nil && f.MaxArea < 0 {
		return fmt.Errorf("dse: filter max_area %v must be non-negative", f.MaxArea)
	}
	// Tune-shaped axes share the Tune ranges; validate them through a
	// probe spec so the rules live in one place.
	probe := jobspec.DefaultTLM()
	for _, d := range s.Axes.Depths {
		probe.Tune = &jobspec.Tune{Depth: d}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, is := range s.Axes.Issues {
		probe.Tune = &jobspec.Tune{Issue: is}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, mix := range s.Axes.FUMixes {
		if len(mix) == 0 {
			continue
		}
		probe.Tune = &jobspec.Tune{FUs: mix}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, m := range s.Axes.BranchMiss {
		m := m
		probe.Tune = &jobspec.Tune{BranchMiss: &m}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, p := range s.Axes.BranchPenalty {
		p := p
		probe.Tune = &jobspec.Tune{BranchPenalty: &p}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Normalized returns a copy with resolved defaults — the canonical form
// Fingerprint hashes, so a sweep spelling out a default and one relying
// on it share resume state.
func (s *Sweep) Normalized() Sweep {
	n := *s
	if n.Name == "" {
		n.Name = "sweep"
	}
	if n.Frames == 0 {
		n.Frames = 1
	}
	if n.Engine == "" {
		n.Engine = jobspec.EngineTimed
	}
	if len(n.Axes.Apps) == 0 {
		n.Axes.Apps = []string{jobspec.AppMP3}
	}
	if len(n.Axes.Caches) == 0 {
		n.Axes.Caches = []CacheGeom{{I: 8192, D: 4096}}
	}
	if s.Filter != nil {
		f := *s.Filter
		n.Filter = &f
		if f.MaxArea == 0 {
			n.Filter = nil
		}
	}
	return n
}

// Fingerprint is the sha256 hex digest of the normalized sweep's
// canonical encoding — the identity under which on-disk resume state is
// verified before any checkpointed row is trusted.
func (s *Sweep) Fingerprint() string {
	n := s.Normalized()
	data, err := json.Marshal(&n)
	if err != nil {
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Point is one expanded sweep point: a stable index into the expansion
// order, the lowered job, and the deterministic FU-area proxy.
type Point struct {
	Index int
	Spec  jobspec.Spec
	Area  float64
}

// Expand lowers the sweep to its ordered point list: the cartesian
// product of the axes, minus (app, design) pairs invalid for the app,
// minus points pruned by the filter. The order is a pure function of the
// sweep, so indices are stable across processes — the property sharding
// and resume rely on.
func (s *Sweep) Expand() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	designs := func(app string) []string {
		if len(n.Axes.Designs) == 0 {
			return apps.DesignNames(app)
		}
		var out []string
		for _, d := range n.Axes.Designs {
			for _, known := range apps.DesignNames(app) {
				if known == d {
					out = append(out, d)
				}
			}
		}
		return out
	}
	depths := n.Axes.Depths
	if len(depths) == 0 {
		depths = []int{0}
	}
	issues := n.Axes.Issues
	if len(issues) == 0 {
		issues = []int{0}
	}
	mixes := n.Axes.FUMixes
	if len(mixes) == 0 {
		mixes = []map[string]int{nil}
	}
	miss := n.Axes.BranchMiss
	hasMiss := len(miss) > 0
	if !hasMiss {
		miss = []float64{0}
	}
	pen := n.Axes.BranchPenalty
	hasPen := len(pen) > 0
	if !hasPen {
		pen = []float64{0}
	}

	var points []Point
	idx := 0
	for _, app := range n.Axes.Apps {
		for _, design := range designs(app) {
			for _, depth := range depths {
				for _, issue := range issues {
					for _, mix := range mixes {
						for _, cache := range n.Axes.Caches {
							for _, m := range miss {
								for _, p := range pen {
									spec := jobspec.Spec{
										Kind:      jobspec.KindTLM,
										App:       app,
										Design:    design,
										Frames:    n.Frames,
										Seed:      n.Seed,
										Engine:    n.Engine,
										Calibrate: n.Calibrate,
										ICache:    cache.I,
										DCache:    cache.D,
									}
									t := &jobspec.Tune{Depth: depth, Issue: issue, FUs: mix}
									if hasMiss {
										v := m
										t.BranchMiss = &v
									}
									if hasPen {
										v := p
										t.BranchPenalty = &v
									}
									spec.Tune = t
									if err := spec.Validate(); err != nil {
										return nil, fmt.Errorf("dse: point %d: %w", idx, err)
									}
									area := areaProxy(design, depth, issue, mix)
									if n.Filter != nil && n.Filter.MaxArea > 0 && area > n.Filter.MaxArea {
										continue
									}
									points = append(points, Point{Index: idx, Spec: spec, Area: area})
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	if n.Limit > 0 && len(points) > n.Limit {
		return nil, fmt.Errorf("dse: sweep expands to %d points, over the declared limit %d", len(points), n.Limit)
	}
	return points, nil
}

// fuString renders an FU override map canonically ("alu=2,mul=1"; empty
// for the stock mix) — the form the result tables carry.
func fuString(mix map[string]int) string {
	if len(mix) == 0 {
		return ""
	}
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", k, mix[k])
	}
	return sb.String()
}
