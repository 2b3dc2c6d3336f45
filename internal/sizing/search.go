package sizing

import (
	"math"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/estimator"
	"cadb/internal/index"
	"cadb/internal/sampling"
)

// Greedy runs the paper's greedy heuristic (Section 5.2) for one sampling
// fraction: process targets narrow-to-wide; deduce when an enabled deduction
// meets the accuracy constraint; otherwise enable a deduction by sampling
// its children when that is cheaper than sampling the node; otherwise
// sample the node itself.
func Greedy(est *estimator.Estimator, targets, existing []*index.Def, e, q, f float64) *Plan {
	return greedyOn(buildGraph(est, targets, existing, f), e, q)
}

// greedyOn runs the greedy assignment over a pre-built graph.
func greedyOn(g *graph, e, q float64) *Plan {
	for _, n := range g.order {
		if !n.Target || g.known(n) {
			continue
		}
		// Option 1: an already-enabled deduction that satisfies e/q.
		var bestDed *Deduction
		bestProb := -1.0
		for _, ded := range n.Deductions {
			enabled := true
			for _, c := range ded.Children {
				if !g.known(c) {
					enabled = false
					break
				}
			}
			if !enabled {
				continue
			}
			mean, std := g.deducedError(n, ded)
			p := estimator.ProbWithin(mean, std, e)
			if p >= q && p > bestProb {
				bestProb = p
				bestDed = ded
			}
		}
		if bestDed != nil {
			n.State = StateDeduced
			n.Chosen = bestDed
			n.Mean, n.Std = g.deducedError(n, bestDed)
			continue
		}
		// Option 2: enable a deduction by sampling its undecided children,
		// if the children's total sampling cost undercuts sampling the node.
		var bestEnable *Deduction
		bestEnableCost := math.Inf(1)
		for _, ded := range n.Deductions {
			var extra float64
			for _, c := range ded.Children {
				if !g.known(c) {
					extra += c.Cost
				}
			}
			if extra >= n.Cost || extra >= bestEnableCost {
				continue
			}
			// Error if the unknown children were sampled now.
			mean, std := 1.0, 0.0
			for _, c := range ded.Children {
				cm, cs := c.Mean, c.Std
				if !g.known(c) {
					cm, cs = g.sampleError(c)
				}
				mean, std = composeErr(mean, std, cm, cs)
			}
			switch ded.Kind {
			case DeduceColSet:
				mean, std = composeErr(mean, std, 1, g.est.Model.ColSetStd)
			case DeduceColExt:
				dm, ds := g.est.Model.ColExtError(n.Def.Method, len(ded.Children))
				mean, std = composeErr(mean, std, dm, ds)
			}
			if estimator.ProbWithin(mean, std, e) >= q {
				bestEnable = ded
				bestEnableCost = extra
			}
		}
		if bestEnable != nil {
			for _, c := range bestEnable.Children {
				if !g.known(c) {
					c.State = StateSampled
					c.Mean, c.Std = g.sampleError(c)
				}
			}
			n.State = StateDeduced
			n.Chosen = bestEnable
			n.Mean, n.Std = g.deducedError(n, bestEnable)
			continue
		}
		// Option 3: sample the node itself.
		n.State = StateSampled
		n.Mean, n.Std = g.sampleError(n)
	}
	g.refine(e, q)
	return g.finish(g.f, e, q)
}

// refine is a strict-improvement pass over the greedy assignment: a SAMPLED
// target whose deduction children all ended up known anyway (sampled for
// other targets, or narrower deduced nodes) flips to DEDUCED, saving its
// whole sampling cost. ColExt children always have strictly fewer columns,
// so processing narrow-to-wide keeps the deduction DAG acyclic; ColSet links
// same-width nodes, so those flips additionally require a still-SAMPLED
// child to avoid mutual deduction.
func (g *graph) refine(e, q float64) {
	// Nodes already serving as deduction children are pinned: flipping them
	// would silently grow their parents' composed error.
	pinned := make(map[*Node]bool)
	for _, n := range g.order {
		if n.Chosen != nil {
			for _, c := range n.Chosen.Children {
				pinned[c] = true
			}
		}
	}
	for _, n := range g.order {
		if !n.Target || n.Existing || n.State != StateSampled || pinned[n] {
			continue
		}
		var best *Deduction
		bm, bs := 0.0, 0.0
		bestProb := -1.0
		for _, ded := range n.Deductions {
			ok := true
			for _, c := range ded.Children {
				if c == n || !g.known(c) {
					ok = false
					break
				}
				if ded.Kind == DeduceColSet && !(c.State == StateSampled || c.Existing) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mean, std := g.deducedError(n, ded)
			if p := estimator.ProbWithin(mean, std, e); p >= q && p > bestProb {
				best, bm, bs, bestProb = ded, mean, std, p
			}
		}
		if best != nil {
			n.State = StateDeduced
			n.Chosen = best
			n.Mean, n.Std = bm, bs
			for _, c := range best.Children {
				pinned[c] = true
			}
		}
	}
}

// All is the no-deduction baseline: SampleCF on every target (Table 4's
// "All" row).
func All(est *estimator.Estimator, targets, existing []*index.Def, e, q, f float64) *Plan {
	return allOn(buildGraph(est, targets, existing, f), e, q)
}

// allOn runs the all-sampled assignment over a pre-built graph.
func allOn(g *graph, e, q float64) *Plan {
	for _, n := range g.order {
		if n.Target && !g.known(n) {
			n.State = StateSampled
			n.Mean, n.Std = g.sampleError(n)
		}
	}
	return g.finish(g.f, e, q)
}

// Optimal is the exact exponential algorithm (Appendix D): enumerate every
// subset of nodes to sample; the rest must be deducible bottom-up while
// meeting the accuracy constraint. Practical only for small target sets.
// maxNodes caps the universe size (0 means 24).
func Optimal(est *estimator.Estimator, targets, existing []*index.Def, e, q, f float64, maxNodes int) (*Plan, bool) {
	if maxNodes <= 0 {
		maxNodes = 24
	}
	g := buildGraph(est, targets, existing, f)
	// Free (existing) nodes stay fixed; the choice space is the rest.
	var free []*Node
	for _, n := range g.order {
		if !n.Existing {
			free = append(free, n)
		}
	}
	if len(free) > maxNodes {
		return nil, false
	}
	bestCost := math.Inf(1)
	var bestStates []State
	var bestChosen []*Deduction

	nFree := len(free)
	for mask := 0; mask < 1<<uint(nFree); mask++ {
		// Reset.
		var cost float64
		for i, n := range free {
			if mask&(1<<uint(i)) != 0 {
				n.State = StateSampled
				n.Mean, n.Std = g.sampleError(n)
				n.Chosen = nil
				cost += n.Cost
			} else {
				n.State = StateNone
				n.Chosen = nil
			}
		}
		if cost >= bestCost {
			continue
		}
		// Resolve unsampled nodes narrow-to-wide by their best deduction.
		ok := true
		for _, n := range g.order {
			if n.State != StateNone {
				if n.State == StateSampled && n.Target && n.Prob(e) < q {
					ok = false
					break
				}
				continue
			}
			var best *Deduction
			bm, bs := 0.0, math.Inf(1)
			for _, ded := range n.Deductions {
				enabled := true
				for _, c := range ded.Children {
					if !g.known(c) {
						enabled = false
						break
					}
				}
				if !enabled {
					continue
				}
				m, s := g.deducedError(n, ded)
				if s < bs {
					bm, bs, best = m, s, ded
				}
			}
			if best == nil {
				if n.Target {
					ok = false
					break
				}
				continue // unused helper
			}
			n.State = StateDeduced
			n.Chosen = best
			n.Mean, n.Std = bm, bs
			if n.Target && n.Prob(e) < q {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		bestCost = cost
		bestStates = make([]State, nFree)
		bestChosen = make([]*Deduction, nFree)
		for i, n := range free {
			bestStates[i] = n.State
			bestChosen[i] = n.Chosen
		}
	}
	if bestStates == nil {
		// Infeasible at this f: report the all-sampled plan as infeasible.
		return All(est, targets, existing, e, q, f), true
	}
	// Re-apply the best assignment.
	for i, n := range free {
		n.State = bestStates[i]
		n.Chosen = bestChosen[i]
		switch n.State {
		case StateSampled:
			n.Mean, n.Std = g.sampleError(n)
		case StateDeduced:
			n.Mean, n.Std = 1, 0 // recomputed below in order
		}
	}
	for _, n := range g.order {
		if n.State == StateDeduced && n.Chosen != nil {
			n.Mean, n.Std = g.deducedError(n, n.Chosen)
		}
	}
	return g.finish(f, e, q), true
}

// finish prunes unused helper nodes (Greedy lines 13–14), totals the cost
// and checks feasibility.
func (g *graph) finish(f, e, q float64) *Plan {
	used := make(map[*Node]bool)
	var mark func(n *Node)
	mark = func(n *Node) {
		if used[n] {
			return
		}
		used[n] = true
		if n.Chosen != nil {
			for _, c := range n.Chosen.Children {
				mark(c)
			}
		}
	}
	for _, n := range g.order {
		if n.Target {
			mark(n)
		}
	}
	p := &Plan{F: f, ByID: make(map[string]*Node), Feasible: true}
	for _, n := range g.order {
		if !used[n] {
			n.State = StateNone
			continue
		}
		p.Nodes = append(p.Nodes, n)
		p.ByID[n.Def.ID()] = n
		if n.State == StateSampled && !n.Existing {
			p.TotalCost += n.Cost
		}
		if n.Target && n.Prob(e) < q {
			p.Feasible = false
		}
	}
	return p
}

// DefaultFGrid is the candidate sampling-fraction grid (1–10%).
func DefaultFGrid() []float64 { return []float64{0.01, 0.025, 0.05, 0.075, 0.1} }

// Sweep runs Greedy at each sampling fraction of DefaultFGrid and returns the
// feasible plan with the smallest total cost along with the estimator
// configured for the winning fraction (Section 5.2's choice of f). All grid
// points share one sample store, so a smaller-f sample is a prefix of the
// largest-f sample and one table scan serves the whole grid.
func Sweep(db *catalog.Database, targets, existing []*index.Def, e, q float64, seed int64) (*Plan, *estimator.Estimator) {
	return SweepShared(sampling.NewStore(db, seed), targets, existing, e, q)
}

// SweepShared is Sweep over a caller-provided sample store (so the samples —
// and their build cost accounting — can outlive the sweep). The winning
// plan's SolveTime covers every grid point, and the losing grid points'
// estimator accounting is folded into the returned estimator, so the Figure
// 11 runtime breakdown reports the full grid cost rather than the winner's
// share alone.
func SweepShared(store *sampling.Store, targets, existing []*index.Def, e, q float64) (*Plan, *estimator.Estimator) {
	var bestPlan *Plan
	var bestEst *estimator.Estimator
	var losers []*estimator.Estimator
	var solveTime time.Duration
	for _, f := range DefaultFGrid() {
		est := estimator.New(store.DB, store.Manager(f))
		start := time.Now()
		plan := Greedy(est, targets, existing, e, q, f)
		solveTime += time.Since(start)
		if bestPlan == nil ||
			(plan.Feasible && !bestPlan.Feasible) ||
			(plan.Feasible == bestPlan.Feasible && plan.TotalCost < bestPlan.TotalCost) {
			if bestEst != nil {
				losers = append(losers, bestEst)
			}
			bestPlan = plan
			bestEst = est
		} else {
			losers = append(losers, est)
		}
	}
	bestPlan.SolveTime = solveTime
	for _, l := range losers {
		bestEst.AbsorbAccounting(l)
	}
	return bestPlan, bestEst
}

// Execute runs the chosen plan through the estimator: SampleCF for sampled
// nodes, deductions for deduced nodes, narrow-to-wide so children are ready
// before parents. Returns the estimates keyed by def ID.
func Execute(est *estimator.Estimator, p *Plan) (map[string]*estimator.Estimate, error) {
	out := make(map[string]*estimator.Estimate, len(p.Nodes))
	for _, n := range p.Nodes {
		switch n.State {
		case StateSampled:
			e, err := est.SampleCF(n.Def)
			if err != nil {
				return nil, err
			}
			out[n.Def.ID()] = e
		case StateDeduced:
			var e *estimator.Estimate
			var err error
			switch n.Chosen.Kind {
			case DeduceColSet:
				child := out[n.Chosen.Children[0].Def.ID()]
				if child == nil {
					child, err = est.SampleCF(n.Chosen.Children[0].Def)
					if err != nil {
						return nil, err
					}
					// Record the fallback so a second node deducing from
					// the same child reuses it instead of re-sampling.
					out[n.Chosen.Children[0].Def.ID()] = child
				}
				e, err = est.DeduceColSet(n.Def, child)
			case DeduceColExt:
				parts := make([]*estimator.Estimate, len(n.Chosen.Children))
				for i, c := range n.Chosen.Children {
					parts[i] = out[c.Def.ID()]
					if parts[i] == nil {
						parts[i], err = est.SampleCF(c.Def)
						if err != nil {
							return nil, err
						}
						out[c.Def.ID()] = parts[i]
					}
				}
				e, err = est.DeduceColExt(n.Def, parts)
			}
			if err != nil {
				return nil, err
			}
			out[n.Def.ID()] = e
		}
	}
	return out, nil
}
