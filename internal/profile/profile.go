// Package profile implements the cycle-attribution profiler: it joins the
// per-block execution counts of a (timed or functional) TLM run with each
// block's statistical estimate breakdown (Algorithm 2's schedule, branch
// penalty, i-cache and d-cache terms) into a ranked "where do the estimated
// cycles go" report.
//
// The join is exact. Every block's Estimate.Total is an integral float64
// (core.ComposeEstimate rounds it), execution counts are integers, and all
// products and sums stay far below 2^53, so dynamic cycles here are
// computed bit-for-bit identically to the simulation's own accumulation:
// the per-PE totals reconcile exactly with tlm.Result.CyclesByPE. The four
// statistical terms are real-valued, so each row carries a rounding
// residual column (Total − (Sched+Branch+IMem+DMem), scaled by the count)
// that makes the term columns sum exactly to the cycle column.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ese/internal/cdfg"
	"ese/internal/core"
)

// Row is the attribution of one (process, basic block) pair.
type Row struct {
	PE    string `json:"pe"`    // process key ("pe" or "pe/task")
	Func  string `json:"func"`  // function containing the block
	Block int    `json:"block"` // basic-block id within the function
	Count uint64 `json:"count"` // dynamic executions
	// PerExec is the block's estimated cycles per execution
	// (Estimate.Total, integral).
	PerExec float64 `json:"cycles_per_exec"`
	// Cycles is Count × PerExec, the block's share of the simulated time.
	Cycles float64 `json:"cycles"`
	// Attribution of Cycles over the estimate's terms (each is Count × the
	// per-execution term); Round is the rounding residual that makes
	// Sched+Branch+IMem+DMem+Round == Cycles exactly.
	Sched  float64 `json:"sched"`
	Branch float64 `json:"branch"`
	IMem   float64 `json:"imem"`
	DMem   float64 `json:"dmem"`
	Round  float64 `json:"round"`
	// Pct is Cycles as a percentage of the report's total.
	Pct float64 `json:"pct"`
}

// Report is the full attribution of one run.
type Report struct {
	Design string `json:"design,omitempty"`
	// TotalCycles is the sum of every row's Cycles; for a timed TLM run it
	// equals the sum of tlm.Result.CyclesByPE bit-for-bit.
	TotalCycles float64 `json:"total_cycles"`
	// ByPE is the per-process-key subtotal (same keys as Rows' PE).
	ByPE map[string]float64 `json:"cycles_by_pe"`
	// Rows are sorted by Cycles descending (ties: PE, Func, Block).
	Rows []Row `json:"rows"`
}

// Build joins execution counts with block estimates. counts is keyed by
// process key ("pe" or "pe/task", as in tlm.Result.BlockCountsByPE); est is
// keyed by PE name (RTOS task keys fall back to their PE's entry) and
// holds each PE's estimates in dense program block order (see
// core.Table). Blocks that never executed are omitted.
func Build(design string, prog *cdfg.Program, counts map[string]map[*cdfg.Block]uint64,
	est map[string][]core.Estimate) (*Report, error) {
	r := &Report{Design: design, ByPE: make(map[string]float64)}
	for key, cm := range counts {
		em, ok := est[key]
		if !ok {
			// RTOS task key "pe/task": attribution uses the PE's estimates.
			if i := strings.IndexByte(key, '/'); i > 0 {
				em, ok = est[key[:i]]
			}
			if !ok {
				return nil, fmt.Errorf("profile: no estimates for process %q", key)
			}
		}
		if len(em) != prog.NumBlocks() {
			return nil, fmt.Errorf("profile: process %q has %d estimates for a program of %d blocks",
				key, len(em), prog.NumBlocks())
		}
		var sub float64
		i := 0
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				e := em[i]
				i++
				n := cm[b]
				if n == 0 {
					continue
				}
				cnt := float64(n)
				row := Row{
					PE:      key,
					Func:    fn.Name,
					Block:   b.ID,
					Count:   n,
					PerExec: e.Total,
					Cycles:  cnt * e.Total,
					Sched:   cnt * float64(e.Sched),
					Branch:  cnt * e.BranchPen,
					IMem:    cnt * e.IDelay,
					DMem:    cnt * e.DDelay,
				}
				row.Round = row.Cycles - (row.Sched + row.Branch + row.IMem + row.DMem)
				r.Rows = append(r.Rows, row)
				sub += row.Cycles
			}
		}
		r.ByPE[key] = sub
		r.TotalCycles += sub
	}
	for i := range r.Rows {
		if r.TotalCycles > 0 {
			r.Rows[i].Pct = 100 * r.Rows[i].Cycles / r.TotalCycles
		}
	}
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := &r.Rows[i], &r.Rows[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Block < b.Block
	})
	return r, nil
}

// Text renders the top rows as an aligned table; top <= 0 renders all.
func (r *Report) Text(top int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle attribution")
	if r.Design != "" {
		fmt.Fprintf(&sb, " for %s", r.Design)
	}
	fmt.Fprintf(&sb, ": %d cycles total\n", int64(r.TotalCycles))
	keys := make([]string, 0, len(r.ByPE))
	for k := range r.ByPE {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-14s %14d cycles\n", k, int64(r.ByPE[k]))
	}
	n := len(r.Rows)
	if top > 0 && top < n {
		n = top
	}
	sb.WriteString("  PE             FUNC/BLOCK                COUNT       CYCLES    %      SCHED     BRANCH       IMEM       DMEM\n")
	for _, row := range r.Rows[:n] {
		fmt.Fprintf(&sb, "  %-14s %-22s %8d %12d %5.1f %10.0f %10.1f %10.1f %10.1f\n",
			row.PE, fmt.Sprintf("%s/bb%d", row.Func, row.Block), row.Count,
			int64(row.Cycles), row.Pct, row.Sched, row.Branch, row.IMem, row.DMem)
	}
	if n < len(r.Rows) {
		var rest float64
		for _, row := range r.Rows[n:] {
			rest += row.Cycles
		}
		fmt.Fprintf(&sb, "  ... %d more blocks (%d cycles)\n", len(r.Rows)-n, int64(rest))
	}
	return sb.String()
}

// JSON renders the full report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
