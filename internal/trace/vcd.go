package trace

import (
	"fmt"
	"sort"
	"strings"

	"ese/internal/sim"
)

// vcdID builds the short identifier code for wire index i.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return string(alphabet[i%len(alphabet)]) + vcdID(i/len(alphabet)-1)
}

// RenderVCD renders the timeline as a VCD (value change dump) waveform
// with a 1 ps timescale, viewable in GTKWave and friends: one 1-bit wire
// per track, in track order, named after it with a _busy suffix. Each
// slice drives its track's wire to 1 at its start and back to 0 at its
// end. Slices are recorded out of time order (processes interleave), so
// the changes are sorted by time, keeping recording order among
// simultaneous ones; a change to the value a wire already holds is
// dropped.
func (e *Events) RenderVCD() string {
	var sb strings.Builder
	sb.WriteString("$timescale 1ps $end\n$scope module tlm $end\n")
	wire := strings.NewReplacer(" ", "_", "/", ".")
	for i, name := range e.tracks {
		fmt.Fprintf(&sb, "$var wire 1 %s %s_busy $end\n", vcdID(i), wire.Replace(name))
	}
	sb.WriteString("$upscope $end\n$enddefinitions $end\n")
	// Initial values.
	sb.WriteString("$dumpvars\n")
	for i := range e.tracks {
		fmt.Fprintf(&sb, "0%s\n", vcdID(i))
	}
	sb.WriteString("$end\n")
	type change struct {
		t        sim.Time
		wire, to int
	}
	changes := make([]change, 0, 2*len(e.slices))
	for _, s := range e.slices {
		changes = append(changes, change{s.from, s.tid - 1, 1}, change{s.to, s.tid - 1, 0})
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].t < changes[j].t })
	last := make([]int, len(e.tracks))
	curTime := sim.Time(0)
	headerOut := false
	for _, c := range changes {
		if c.to == last[c.wire] {
			continue
		}
		if c.t != curTime || !headerOut {
			fmt.Fprintf(&sb, "#%d\n", uint64(c.t))
			curTime = c.t
			headerOut = true
		}
		fmt.Fprintf(&sb, "%d%s\n", c.to, vcdID(c.wire))
		last[c.wire] = c.to
	}
	return sb.String()
}
