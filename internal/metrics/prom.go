package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4), the second wire format of the esed /metrics endpoint.
//
// Instrument names are sanitized into the Prometheus grammar (every rune
// outside [a-zA-Z0-9_:] becomes '_', so "cache.sched.hits" scrapes as
// "cache_sched_hits"); a name that sanitizes to nothing is skipped. Names
// whose sanitized family collides (two raw names mapping onto the same
// family, or a family name already claimed by a different section) are
// emitted once, first-sorted wins — duplicate samples or duplicate TYPE
// lines make the whole scrape unparseable, which is strictly worse than
// dropping the collision.
//
// Counters emit as counter, gauges as gauge, and the aggregate histograms
// as a bucket-less summary (`_sum`/`_count`) plus `_min`/`_max` gauges.
// Families are emitted in sorted-name order with one TYPE line per
// family, so the output is deterministic for a fixed snapshot.
func (s Snapshot) WriteProm(w io.Writer) error {
	emitted := map[string]bool{} // family names claimed so far, across sections

	// emit writes one section's families: one TYPE line and one sample
	// each, colliding names dropped.
	emit := func(names []string, typ string, val func(string) string) error {
		sort.Strings(names)
		type series struct{ base, val string }
		ser := make([]series, 0, len(names))
		for _, n := range names {
			if base := promName(n); base != "" {
				ser = append(ser, series{base, val(n)})
			}
		}
		// Stable keeps colliding names in raw-name order, so the
		// first-sorted raw name deterministically wins the collision.
		sort.SliceStable(ser, func(i, j int) bool { return ser[i].base < ser[j].base })
		for _, sr := range ser {
			if emitted[sr.base] {
				continue
			}
			emitted[sr.base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", sr.base, typ, sr.base, sr.val); err != nil {
				return err
			}
		}
		return nil
	}

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	if err := emit(names, "counter", func(n string) string {
		return fmt.Sprintf("%d", s.Counters[n])
	}); err != nil {
		return err
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	if err := emit(names, "gauge", func(n string) string {
		return fmt.Sprintf("%d", s.Gauges[n])
	}); err != nil {
		return err
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base := promName(n)
		if base == "" || emitted[base] || emitted[base+"_min"] || emitted[base+"_max"] {
			continue
		}
		emitted[base], emitted[base+"_min"], emitted[base+"_max"] = true, true, true
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n%s_sum %s\n%s_count %d\n",
			base, base, promFloat(h.Sum), base, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_min gauge\n%s_min %s\n# TYPE %s_max gauge\n%s_max %s\n",
			base, base, promFloat(h.Min), base, base, promFloat(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

// promName maps an instrument name into the Prometheus metric-name
// grammar. A leading digit is prefixed with '_'.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				sb.WriteByte('_')
				sb.WriteRune(r)
				continue
			}
			sb.WriteByte('_')
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// promFloat renders a float in the exposition format (Go 'g' formatting is
// accepted by Prometheus parsers, including Inf/NaN spellings).
func promFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
