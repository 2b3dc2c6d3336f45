package core

import (
	"sort"
	"strings"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/par"
)

// refineColumns upgrades the enumerated configuration from uniform methods to
// per-column compression designs (Section 4's design space, widened from one
// method per structure to one method per column). The search is pruned the
// way the issue prescribes: each member keeps its enumeration winner as the
// seed, and a single greedy coordinate-descent sweep tries every candidate
// method on one column at a time, keeping a change only when the what-if
// workload cost strictly drops and the configuration still fits the budget.
// Sizing goes through the same oracle as enumeration (mixed designs sample
// over the structure's already-built materialization, so a refinement step
// costs one O(columns) decomposition lookup, not a new sample build), and
// costing goes through the incremental Evaluator, so the accepted designs are
// priced exactly like everything else in the run.
func (a *Advisor) refineColumns(cfg *optimizer.Configuration) *optimizer.Configuration {
	if !a.Opts.EnableCompression || !a.Opts.RefineColumns || a.oracle == nil {
		return cfg
	}
	// The sweep tries every method the system knows, not just
	// Opts.Methods: uniform enumeration is deliberately restricted to the
	// cheap two-package space, and this is where GDICT and RLE enter.
	methods := append([]compress.Method{compress.None}, compress.Methods...)

	ev := optimizer.NewEvaluator(a.CM, a.WL, cfg, a.evalStats)
	// Deterministic member order: the configuration's iteration order is
	// structural, so sort by definition ID before sweeping.
	members := append([]*optimizer.HypoIndex{}, cfg.Indexes()...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID() < members[j].ID() })

	workers := a.workers()
	for _, member := range members {
		cur := member
		for _, col := range a.refinableColumns(cur.Def) {
			curMethod := cur.Def.MethodFor(col)
			// Size the method variants first (the oracle serializes
			// internally; mixed designs are O(columns) lookups over the
			// structure's cached decomposition)...
			var variants []*optimizer.HypoIndex
			for _, m := range methods {
				if m == curMethod {
					continue
				}
				est, err := a.oracle.Admit(cur.Def.WithColMethod(col, m))
				if err != nil {
					a.oracle.Recorder().Add(func(t *Timing) { t.EstimationErrors++ })
					continue
				}
				// Dominance prune: every cost term is monotone in (bytes,
				// α, β), so a variant that shrinks none of them cannot beat
				// the current design and its what-if is skipped outright.
				// When bytes are the only improving term, demand a
				// non-trivial reduction (>1/256 ≈ 0.4%) — sub-percent size
				// shaves cannot move workload cost enough to justify a
				// serial what-if at Parallelism 1.
				if a.CM.Alpha[m] >= a.CM.Alpha[curMethod] &&
					a.CM.Beta[m] >= a.CM.Beta[curMethod] &&
					est.Bytes >= cur.Bytes-cur.Bytes/256 {
					continue
				}
				variants = append(variants, hypoOf(est))
			}
			// ...then what-if the swaps concurrently, reducing in variant
			// order so the accepted change is deterministic.
			type swapEval struct {
				next *optimizer.Configuration
				cost float64
			}
			evals := make([]swapEval, len(variants))
			par.For(workers, len(variants), func(i int) {
				next, cost := ev.CostWithReplace(cur, variants[i])
				evals[i] = swapEval{next: next, cost: cost}
			})
			bestCost := ev.Total()
			best := -1
			for i := range evals {
				if evals[i].cost >= bestCost-1e-9 {
					continue
				}
				if evals[i].next.SizeBytes(a.DB) > a.Opts.Budget {
					continue
				}
				best, bestCost = i, evals[i].cost
			}
			if best >= 0 {
				ev = ev.Advance(evals[best].next, cur, variants[best])
				cur = variants[best]
				a.oracle.Recorder().Add(func(t *Timing) { t.Refinements++ })
			}
		}
	}
	return ev.Base()
}

// refinableColumns lists the leaf columns whose method the refinement sweep
// may override: every table column for a clustered index, the key + include
// columns otherwise. The synthetic row-id column of secondary leaves stays on
// the structure's default method.
func (a *Advisor) refinableColumns(d *index.Def) []string {
	if d.Clustered && d.MV == nil {
		if t := a.DB.Table(d.Table); t != nil {
			return t.Schema.Names()
		}
	}
	cols := d.Columns()
	out := cols[:0]
	for _, c := range cols {
		if !strings.EqualFold(c, "__rid") {
			out = append(out, c)
		}
	}
	return out
}
