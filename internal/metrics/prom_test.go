package metrics

import (
	"strings"
	"testing"
)

func TestWritePromEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.sched.hits").Add(42)
	r.Counter("server.jobs").Inc()
	r.Gauge("est.pool.workers").Set(-3)
	h := r.Histogram("pipeline.stage.annotate.seconds")
	h.Observe(0.5)
	h.Observe(1.5)
	// A name that sanitizes to nothing is skipped, not emitted broken.
	r.Counter("").Inc()
	r.Gauge("").Set(1)
	r.Histogram("").Observe(1)

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	got := sb.String()
	want := `# TYPE cache_sched_hits counter
cache_sched_hits 42
# TYPE server_jobs counter
server_jobs 1
# TYPE est_pool_workers gauge
est_pool_workers -3
# TYPE pipeline_stage_annotate_seconds summary
pipeline_stage_annotate_seconds_sum 2
pipeline_stage_annotate_seconds_count 2
# TYPE pipeline_stage_annotate_seconds_min gauge
pipeline_stage_annotate_seconds_min 0.5
# TYPE pipeline_stage_annotate_seconds_max gauge
pipeline_stage_annotate_seconds_max 1.5
`
	if got != want {
		t.Fatalf("WriteProm output:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePromDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"b.z", "a.z", "c.z"} {
		r.Counter(n).Inc()
		r.Gauge(n + ".g").Set(1)
	}
	var first string
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		if err := r.Snapshot().WriteProm(&sb); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatal("WriteProm output not deterministic across calls")
		}
	}
	if !strings.HasPrefix(first, "# TYPE a_z counter") {
		t.Fatalf("families not sorted:\n%s", first)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"cache.sched.hits": "cache_sched_hits",
		"a-b c/d":          "a_b_c_d",
		"9lives":           "_9lives",
		"ok_name:sub":      "ok_name:sub",
		"tlm.steps9":       "tlm_steps9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Two raw names that sanitize onto one family must not emit duplicate
// TYPE lines (unscrapeable); nor may a histogram claim a family name a
// counter already owns.
func TestWritePromCollidingFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	r.Counter("a_b").Add(2)
	r.Histogram("a.b").Observe(1) // family a_b already claimed by the counters

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	got := sb.String()
	if strings.Count(got, "# TYPE a_b ") != 1 {
		t.Fatalf("colliding families emitted multiple TYPE lines:\n%s", got)
	}
	if strings.Contains(got, "summary") {
		t.Fatalf("histogram took over a claimed family name:\n%s", got)
	}
	// First-sorted raw name ("a.b" < "a_b") wins within the merged family.
	if !strings.Contains(got, "a_b 1") || strings.Contains(got, "a_b 2") {
		t.Fatalf("collision winner wrong:\n%s", got)
	}
}
