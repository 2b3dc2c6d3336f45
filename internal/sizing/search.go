package sizing

import (
	"math"
	"time"

	"cadb/internal/index"
	"cadb/internal/obs"
	"cadb/internal/par"
	"cadb/internal/sampling"
)

// Greedy runs the paper's greedy heuristic (Section 5.2) for one sampling
// fraction: process targets narrow-to-wide; deduce when an enabled deduction
// meets the accuracy constraint; otherwise enable a deduction by sampling
// its children when that is cheaper than sampling the node; otherwise
// sample the node itself.
func Greedy(est *Estimator, targets, existing []*index.Def, e, q, f float64) *Plan {
	return greedyOn(newSkeleton(est, targets, existing).graph(est, f), e, q)
}

// greedyOn runs the greedy assignment over a pre-built graph.
func greedyOn(g *graph, e, q float64) *Plan {
	for _, n := range g.order {
		if !n.Target || g.known(n) {
			continue
		}
		// Option 1: an already-enabled deduction that satisfies e/q.
		if best, mean, std := g.bestDeduction(n, e, q, false); best != nil {
			n.State = StateDeduced
			n.Chosen = best
			n.Mean, n.Std = mean, std
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
			if mean, std := g.deducedError(n, ded); ProbWithin(mean, std, e) >= q {
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
	return g.finish(e, q)
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
		if best, mean, std := g.bestDeduction(n, e, q, true); best != nil {
			n.State = StateDeduced
			n.Chosen = best
			n.Mean, n.Std = mean, std
			for _, c := range best.Children {
				pinned[c] = true
			}
		}
	}
}

// All is the no-deduction baseline: SampleCF on every target (Table 4's
// "All" row).
func All(est *Estimator, targets, existing []*index.Def, e, q, f float64) *Plan {
	return allOn(newSkeleton(est, targets, existing).graph(est, f), e, q)
}

// allOn runs the all-sampled assignment over a pre-built graph.
func allOn(g *graph, e, q float64) *Plan {
	for _, n := range g.order {
		if n.Target && !g.known(n) {
			n.State = StateSampled
			n.Mean, n.Std = g.sampleError(n)
		}
	}
	return g.finish(e, q)
}

// Optimal is the exact exponential algorithm (Appendix D): enumerate every
// subset of nodes to sample; the rest must be deducible bottom-up while
// meeting the accuracy constraint. Practical only for small target sets.
// maxNodes caps the universe size (0 means 24).
func Optimal(est *Estimator, targets, existing []*index.Def, e, q, f float64, maxNodes int) (*Plan, bool) {
	if maxNodes <= 0 {
		maxNodes = 24
	}
	skel := newSkeleton(est, targets, existing)
	g := skel.graph(est, f)
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
				if !g.enabled(ded, false) {
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
		return allOn(skel.graph(est, f), e, q), true
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
	return g.finish(e, q), true
}

// finish prunes unused helper nodes (Greedy lines 13–14), totals the cost
// and checks feasibility.
func (g *graph) finish(e, q float64) *Plan {
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
	p := &Plan{F: g.f, ByID: make(map[string]*Node), Feasible: true}
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

// Sweep chooses the sampling fraction (Section 5.2): it solves the
// estimation plan at every point of DefaultFGrid — Greedy when deduce is
// set, the no-deduction All otherwise — and returns the feasible plan with
// the smallest total cost, with the estimator for its fraction. The grid
// points are independent stats-only searches over one skeleton, solved on
// up to workers goroutines and reduced in grid order, so the winner is the
// same at any worker count. All points share the store's samples: a
// smaller-f sample is a prefix of the largest-f one, and one table scan
// serves the whole grid. Every grid point's estimator records into the
// store's recorder, and so does the solve time of the skeleton and of each
// grid point, so the Figure 11 runtime breakdown reports the grid's cost.
func Sweep(store *sampling.Store, targets []*index.Def, deduce bool, e, q float64, workers int) (*Plan, *Estimator) {
	grid := DefaultFGrid()
	ests := make([]*Estimator, len(grid))
	for i, f := range grid {
		ests[i] = NewEstimator(store.DB, store.Manager(f))
	}
	rec := store.Recorder()
	solveSince := func(start time.Time) {
		elapsed := time.Since(start)
		rec.Add(func(t *obs.Timing) { t.PlanSolve += elapsed })
	}
	start := time.Now()
	skel := newSkeleton(ests[0], targets, nil)
	solveSince(start)
	solve := allOn
	if deduce {
		solve = greedyOn
	}
	plans := make([]*Plan, len(grid))
	par.For(workers, len(grid), func(i int) {
		start := time.Now()
		plans[i] = solve(skel.graph(ests[i], grid[i]), e, q)
		solveSince(start)
	})
	best := 0
	for i, p := range plans {
		b := plans[best]
		if (p.Feasible && !b.Feasible) || (p.Feasible == b.Feasible && p.TotalCost < b.TotalCost) {
			best = i
		}
	}
	return plans[best], ests[best]
}

// Execute runs the chosen plan through the estimator: SampleCF for sampled
// nodes, deductions for deduced nodes, narrow-to-wide so children are ready
// before parents. Returns the estimates keyed by def ID.
func Execute(est *Estimator, p *Plan) (map[string]*Estimate, error) {
	out := make(map[string]*Estimate, len(p.Nodes))
	for _, n := range p.Nodes {
		switch n.State {
		case StateSampled:
			e, err := est.SampleCF(n.Def)
			if err != nil {
				return nil, err
			}
			out[n.Def.ID()] = e
		case StateDeduced:
			e, err := est.Deduce(n, func(c *Node) (*Estimate, error) {
				if ce := out[c.Def.ID()]; ce != nil {
					return ce, nil
				}
				// Record the fallback so a second node deducing from the
				// same child reuses it instead of re-sampling.
				ce, err := est.SampleCF(c.Def)
				if err == nil {
					out[c.Def.ID()] = ce
				}
				return ce, err
			})
			if err != nil {
				return nil, err
			}
			out[n.Def.ID()] = e
		}
	}
	return out, nil
}

// Deduce executes a DEDUCED node's chosen deduction over its children's
// estimates, which child supplies in the deduction's child order.
func (e *Estimator) Deduce(n *Node, child func(c *Node) (*Estimate, error)) (*Estimate, error) {
	parts := make([]*Estimate, len(n.Chosen.Children))
	for i, c := range n.Chosen.Children {
		var err error
		if parts[i], err = child(c); err != nil {
			return nil, err
		}
	}
	if n.Chosen.Kind == DeduceColSet {
		return e.DeduceColSet(n.Def, parts[0])
	}
	return e.DeduceColExt(n.Def, parts)
}
