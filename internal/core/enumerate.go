package core

import (
	"math"
	"strings"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/par"
	"cadb/internal/sizing"
)

// mergeCandidates implements index merging [8]: when two selected candidates
// on the same table share the leading key column, the merged index (union of
// include columns) can serve both queries with one structure. The advisor
// generates compressed variants of merged structures too (Section 6.2's
// closing note).
//
// Merged structures did not exist when the estimation plan was solved, so
// their compressed variants are admitted into the size oracle's live
// deduction graph — deduced for free when an already-estimated parent/child
// covers them, SampleCF otherwise. Estimation failures are tolerated (the
// variant is skipped) but tallied into Timing.EstimationErrors rather than
// swallowed.
func (a *Advisor) mergeCandidates(selected []*optimizer.HypoIndex) []*optimizer.HypoIndex {
	if a.oracle == nil {
		return selected
	}
	out := append([]*optimizer.HypoIndex{}, selected...)
	have := make(map[string]bool, len(selected))
	for _, h := range selected {
		have[h.ID()] = true
	}
	const maxMerges = 12
	merges := 0
	for i := 0; i < len(selected) && merges < maxMerges; i++ {
		for j := i + 1; j < len(selected) && merges < maxMerges; j++ {
			x, y := selected[i].Def, selected[j].Def
			if x.MV != nil || y.MV != nil || x.Clustered || y.Clustered ||
				x.IsPartial() || y.IsPartial() {
				continue
			}
			if !strings.EqualFold(x.Table, y.Table) {
				continue
			}
			if len(x.KeyCols) == 0 || len(y.KeyCols) == 0 ||
				!strings.EqualFold(x.KeyCols[0], y.KeyCols[0]) {
				continue
			}
			merged := &index.Def{
				Table:       x.Table,
				KeyCols:     x.KeyCols,
				IncludeCols: unionCols(tailCols(x), tailCols(y)),
			}
			if len(merged.IncludeCols) == 0 {
				continue
			}
			variants := []*index.Def{merged.Uncompressed()}
			if a.Opts.EnableCompression {
				for _, m := range a.Opts.Methods {
					variants = append(variants, merged.WithMethod(m))
				}
			}
			for _, v := range variants {
				if have[v.ID()] {
					continue
				}
				var e *sizing.Estimate
				var err error
				if v.Method == compress.None {
					e, err = a.oracle.EstimateUncompressed(v)
				} else {
					e, err = a.oracle.Admit(v)
				}
				if err != nil {
					a.oracle.Recorder().Add(func(t *Timing) { t.EstimationErrors++ })
					continue
				}
				h := hypoOf(e)
				have[h.ID()] = true
				out = append(out, h)
			}
			merges++
		}
	}
	return out
}

// tailCols returns the def's non-leading key columns plus its include
// columns, in a freshly allocated slice: appending to d.KeyCols[1:] directly
// would write into KeyCols' backing array, which candidate generation shares
// across defs.
func tailCols(d *index.Def) []string {
	out := make([]string, 0, len(d.KeyCols)-1+len(d.IncludeCols))
	out = append(out, d.KeyCols[1:]...)
	return append(out, d.IncludeCols...)
}

func unionCols(a, b []string) []string {
	var out []string
	for _, c := range append(append([]string{}, a...), b...) {
		out = appendUnique(out, c)
	}
	return out
}

// enumerate performs the greedy search under the storage bound (Section
// 6.2): at each step add the candidate with the largest cost reduction that
// fits the remaining budget. With Backtrack on, an oversized best pick is
// recovered by swapping members of the tentative configuration for their
// compressed variants.
//
// Every what-if goes through the incremental Evaluator: only the statements
// relevant to the added/swapped index are re-planned, the rest reuse the
// base configuration's cost vector. Totals are bit-identical to a full
// WorkloadCost recompute, so recommendations are unchanged.
func (a *Advisor) enumerate(candidates []*optimizer.HypoIndex) *optimizer.Configuration {
	ev := optimizer.NewEvaluator(a.CM, a.WL, optimizer.NewConfiguration(), a.evalStats)
	workers := a.workers()

	remaining := append([]*optimizer.HypoIndex{}, candidates...)
	for ev.Base().Len() < maxIndexes {
		cfg := ev.Base()
		curCost := ev.Total()
		type pick struct {
			h     *optimizer.HypoIndex
			cfg   *optimizer.Configuration
			ev    *optimizer.Evaluator // set on the recover path only
			cost  float64
			score float64
			fits  bool
		}
		// Evaluate every "add h to cfg" what-if concurrently; each worker
		// writes only its own slot. The picks slice is then reduced serially
		// in candidate order below, so ties break identically to a serial
		// run (first candidate with the strictly best score wins) and the
		// recommendation is byte-identical at any Parallelism.
		picks := make([]*pick, len(remaining))
		par.For(workers, len(remaining), func(i int) {
			h := remaining[i]
			if !a.admissible(cfg, h) {
				return
			}
			next, nextCost := ev.CostWithAdd(h)
			gain := curCost - nextCost
			if gain <= 1e-9 {
				return
			}
			picks[i] = &pick{h: h, cfg: next, cost: nextCost, score: gain,
				fits: next.SizeBytes(a.DB) <= a.Opts.Budget}
		})
		var bestFit *pick // best scoring candidate that fits
		var bestAny *pick // best scoring candidate ignoring the budget
		for _, p := range picks {
			if p == nil {
				continue
			}
			if p.fits && (bestFit == nil || p.score > bestFit.score) {
				bestFit = p
			}
			if bestAny == nil || p.score > bestAny.score {
				bestAny = p
			}
		}
		// Backtracking (Figure 8): the greedy choice overshot the budget —
		// try recovering it by compressing members of the tentative
		// configuration, then compare with the best in-budget choice. The
		// EnableCompression gate lives here too: without variants recover
		// can never succeed, and the Advance rebase would be wasted work.
		if a.Opts.Backtrack && a.Opts.EnableCompression && bestAny != nil && (bestFit == nil || bestAny.score > bestFit.score) {
			if recEv := a.recover(ev.Advance(bestAny.cfg, bestAny.h)); recEv != nil {
				if cost := recEv.Total(); bestFit == nil || cost < bestFit.cost {
					bestFit = &pick{h: bestAny.h, cfg: recEv.Base(), ev: recEv, cost: cost, score: bestAny.score}
				}
			}
		}
		if bestFit == nil {
			break
		}
		if bestFit.ev != nil {
			ev = bestFit.ev
		} else {
			ev = ev.Advance(bestFit.cfg, bestFit.h)
		}
		remaining = removeHypo(remaining, bestFit.h)
	}
	return ev.Base()
}

// admissible rejects candidates that conflict with the configuration: a
// second clustered index on a table, or a compression variant of a structure
// already present.
func (a *Advisor) admissible(cfg *optimizer.Configuration, h *optimizer.HypoIndex) bool {
	if cfg.ContainsStructure(h.Def) {
		return false
	}
	if h.Def.Clustered && cfg.Clustered(h.Def.Table) != nil {
		return false
	}
	return true
}

// recover implements the backtracking step: the evaluator's base
// configuration exceeds the budget; try replacing each member with each of
// its compressed variants (and, if needed, several members), keeping the
// variant assignment that performs fastest while fitting the budget. Returns
// the evaluator rebased on the recovered configuration, or nil when no
// assignment fits.
func (a *Advisor) recover(ev *optimizer.Evaluator) *optimizer.Evaluator {
	if !a.Opts.EnableCompression {
		return nil
	}
	workers := a.workers()
	cur := ev
	steps := ev.Base().Len() + 1
	for iter := 0; iter < steps; iter++ {
		if cur.Base().SizeBytes(a.DB) <= a.Opts.Budget {
			return cur
		}
		// One swap: pick the member+variant replacement that fits — or at
		// least shrinks — while costing the least. The member×variant
		// what-ifs are independent, so cost them concurrently and replay the
		// original sequential selection over the results in (member,
		// variant) order to keep the choice deterministic.
		type swapPair struct {
			member, variant *optimizer.HypoIndex
		}
		var pairs []swapPair
		for _, member := range cur.Base().Indexes() {
			for _, variant := range a.pool.variantsOf(member) {
				if variant.Bytes >= member.Bytes {
					continue
				}
				pairs = append(pairs, swapPair{member, variant})
			}
		}
		type swapEval struct {
			next   *optimizer.Configuration
			cost   float64
			fits   bool
			shrink int64
		}
		evals := make([]swapEval, len(pairs))
		par.For(workers, len(pairs), func(i int) {
			next, cost := cur.CostWithReplace(pairs[i].member, pairs[i].variant)
			evals[i] = swapEval{
				next:   next,
				cost:   cost,
				fits:   next.SizeBytes(a.DB) <= a.Opts.Budget,
				shrink: pairs[i].member.Bytes - pairs[i].variant.Bytes,
			}
		})
		best := -1
		bestCost := math.Inf(1)
		bestShrink := int64(0)
		for i := range evals {
			e := &evals[i]
			switch {
			case e.fits && e.cost < bestCost:
				best, bestCost, bestShrink = i, e.cost, e.shrink
			case !e.fits && best < 0 && e.shrink > bestShrink:
				// Track the biggest shrink as a stepping stone.
				best, bestCost, bestShrink = i, e.cost, e.shrink
			}
		}
		if best < 0 {
			return nil
		}
		cur = cur.Advance(evals[best].next, pairs[best].member, pairs[best].variant)
	}
	if cur.Base().SizeBytes(a.DB) <= a.Opts.Budget {
		return cur
	}
	return nil
}

func removeHypo(list []*optimizer.HypoIndex, h *optimizer.HypoIndex) []*optimizer.HypoIndex {
	out := list[:0]
	for _, x := range list {
		if x != h {
			out = append(out, x)
		}
	}
	return out
}

// enumerateStaged is the decoupled baseline of Example 1: run compression-
// blind greedy, compress everything selected with the heaviest method, and
// repeat with the freed budget.
func (a *Advisor) enumerateStaged(candidates []*optimizer.HypoIndex) *optimizer.Configuration {
	// Split candidates into uncompressed and a variant lookup.
	var plain []*optimizer.HypoIndex
	for _, h := range candidates {
		if h.Def.Method == compress.None {
			plain = append(plain, h)
		}
	}
	heavy := compress.Page
	if len(a.Opts.Methods) > 0 {
		heavy = a.Opts.Methods[len(a.Opts.Methods)-1]
	}

	cfg := optimizer.NewConfiguration()
	blind := *a
	blindOpts := a.Opts
	blindOpts.EnableCompression = false
	blindOpts.Backtrack = false
	blind.Opts = blindOpts

	for round := 0; round < 3; round++ {
		used := cfg.SizeBytes(a.DB)
		blind.Opts.Budget = a.Opts.Budget - used
		if blind.Opts.Budget <= 0 {
			break
		}
		// Remove structures already chosen.
		var pool []*optimizer.HypoIndex
		for _, h := range plain {
			if a.admissible(cfg, h) {
				pool = append(pool, h)
			}
		}
		add := blind.enumerate(pool)
		if add.Len() == 0 {
			break
		}
		// Blindly compress every addition with the heaviest method.
		for _, h := range add.Indexes() {
			compressed := a.pool.lookup(h.Def.WithMethod(heavy))
			if compressed != nil {
				cfg = cfg.With(compressed)
			} else {
				cfg = cfg.With(h)
			}
		}
	}
	return cfg
}
