// Package sizing is the paper's size oracle (Sections 4–5). Size estimation:
// SampleCF (build the index on the table's amortized sample, compress it,
// return the compression fraction), the zero-cost deduction methods (ColSet
// and ColExt for order-independent methods; the fragmentation-corrected
// ColExt for order-dependent methods), and the stochastic error model of
// Appendix C. Estimation-plan optimization: given a set of compressed
// indexes whose sizes are needed (targets), a tolerable error ratio e and a
// confidence q, decide for each index whether to run SampleCF (costly,
// accurate) or deduce its size from other indexes (free, noisier), and pick
// the sampling fraction f — minimizing total sampling cost subject to
// P(error <= e) >= q for every target.
//
// The search is over a graph of index nodes and deduction nodes (Figure 3).
// Greedy is the paper's fast heuristic (Section 5.2); Optimal is the exact
// exponential algorithm used as the quality baseline in Table 4.
package sizing

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cadb/internal/compress"
	"cadb/internal/index"
)

// State of an index node.
type State uint8

const (
	// StateNone means no decision yet.
	StateNone State = iota
	// StateSampled means run SampleCF on this index.
	StateSampled
	// StateDeduced means derive the size from the chosen deduction.
	StateDeduced
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateSampled:
		return "SAMPLED"
	case StateDeduced:
		return "DEDUCED"
	default:
		return "NONE"
	}
}

// DeductionKind distinguishes the deduction methods.
type DeductionKind uint8

const (
	// DeduceColSet is the column-set deduction (same columns, ORD-IND).
	DeduceColSet DeductionKind = iota
	// DeduceColExt is column extrapolation from a partition of the columns.
	DeduceColExt
)

// Deduction is one candidate deduction node: parent deduced from children.
type Deduction struct {
	Kind     DeductionKind
	Children []*Node
}

// Node is one index node in the graph.
type Node struct {
	Def      *index.Def
	Target   bool
	Existing bool
	State    State
	// Chosen is the deduction used when State == StateDeduced.
	Chosen *Deduction
	// Deductions are the candidate deduction nodes for this index.
	Deductions []*Deduction
	// Mean/Std describe the error random variable X of the node's estimate
	// under the current assignment.
	Mean, Std float64
	// Cost is the sampling cost paid if SAMPLED (0 for existing indexes).
	Cost float64
}

// Prob returns P(error within e) for the node's current error.
func (n *Node) Prob(e float64) float64 {
	return ProbWithin(n.Mean, n.Std, e)
}

// Plan is a complete assignment for all targets.
type Plan struct {
	F         float64
	Nodes     []*Node // narrow-to-wide order; includes helper nodes
	ByID      map[string]*Node
	TotalCost float64
	Feasible  bool
}

// Admit inserts a late-arriving target (an index merged or generated after
// the initial plan was solved) into an already-executed plan: attach the
// candidate deductions the target has against the plan's known nodes, use
// the best one that satisfies the accuracy constraint (e, q), and fall back
// to SampleCF when none exists. The new node is appended to the plan so
// still-later arrivals can deduce from it in turn. Callers execute the
// returned node (deduction or SampleCF) themselves; Admit only decides.
//
// Admission is deterministic: candidate deductions are discovered by
// scanning the plan's nodes in their (deterministic) narrow-to-wide order.
func (p *Plan) Admit(est *Estimator, d *index.Def, e, q float64) *Node {
	if n, ok := p.ByID[d.ID()]; ok {
		return n
	}
	// Rebuild a graph view over the plan's nodes; helper nodes that
	// addDeductions invents (e.g. unsampled singletons) stay unknown, so
	// only deductions fully backed by executed nodes are considered.
	g := &graph{est: est, f: p.F, nodes: make(map[string]*Node, len(p.Nodes)+1)}
	for _, n := range p.Nodes {
		g.nodes[n.Def.ID()] = n
		g.order = append(g.order, n)
	}
	n := g.node(d)
	n.Target = true
	n.Cost = sampleCost(est.PlanPages(d), p.F)
	g.addDeductions(n)
	p.Nodes = append(p.Nodes, n)
	p.ByID[n.Def.ID()] = n
	if best, mean, std := g.bestDeduction(n, e, q, false); best != nil {
		n.State = StateDeduced
		n.Chosen = best
		n.Mean, n.Std = mean, std
	} else {
		p.Demote(est, n, e, q)
	}
	return n
}

// Demote puts an admitted node on SampleCF — Admit's fallback when no
// deduction meets the accuracy constraint, and the oracle's when the chosen
// deduction could not be executed: sample error, cost charged to the plan,
// and the accuracy constraint re-checked.
func (p *Plan) Demote(est *Estimator, n *Node, e, q float64) {
	n.State = StateSampled
	n.Chosen = nil
	g := &graph{est: est, f: p.F}
	n.Mean, n.Std = g.sampleError(n)
	if !n.Existing {
		p.TotalCost += n.Cost
	}
	if n.Prob(e) < q {
		p.Feasible = false
	}
}

// Describe renders the plan for reports.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "f=%.3f cost=%.1f feasible=%v\n", p.F, p.TotalCost, p.Feasible)
	for _, n := range p.Nodes {
		if n.State == StateNone {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %s", n.State, n.Def)
		if n.Chosen != nil {
			parts := make([]string, len(n.Chosen.Children))
			for i, c := range n.Chosen.Children {
				parts[i] = strings.Join(c.Def.Columns(), ",")
			}
			fmt.Fprintf(&b, "  <= %s", strings.Join(parts, " + "))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// graph builds the node universe for a target set: each target node plus the
// helper nodes its candidate deductions reference (single-column indexes and
// the widest proper prefix).
type graph struct {
	est   *Estimator
	f     float64
	nodes map[string]*Node
	order []*Node
}

func buildGraph(est *Estimator, targets []*index.Def, existing []*index.Def) *graph {
	g := &graph{est: est, nodes: make(map[string]*Node)}
	for _, d := range existing {
		n := g.node(d)
		n.Existing = true
		n.State = StateSampled // size known exactly from the catalog
		n.Mean, n.Std = 1, 0
	}
	for _, d := range targets {
		n := g.node(d)
		n.Target = true
	}
	// Candidate deductions (adds helper nodes).
	for _, n := range g.order {
		if n.Target {
			g.addDeductions(n)
		}
	}
	// Narrow-to-wide processing order, ties by ID; each node's column count
	// and ID are computed once, not once per comparison.
	type sortKey struct {
		cols int
		id   string
		n    *Node
	}
	keys := make([]sortKey, len(g.order))
	for i, n := range g.order {
		keys[i] = sortKey{len(n.Def.Columns()), n.Def.ID(), n}
	}
	slices.SortStableFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.cols, b.cols); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	for i, k := range keys {
		g.order[i] = k.n
	}
	return g
}

func (g *graph) node(d *index.Def) *Node {
	id := d.ID()
	if n, ok := g.nodes[id]; ok {
		return n
	}
	n := &Node{Def: d}
	g.nodes[id] = n
	g.order = append(g.order, n)
	return n
}

// addDeductions attaches the candidate deductions for a target node:
//   - ColSet from any same-column-set node (ORD-IND methods only);
//   - ColExt from all singleton columns (a = #cols);
//   - ColExt from (widest proper prefix) + (last column) (a = 2).
//
// Partial and MV indexes get no deductions (their row sources differ from
// plain table samples), matching the paper's framework where those always go
// through their special samples.
func (g *graph) addDeductions(n *Node) {
	d := n.Def
	if d.MV != nil || d.IsPartial() || d.Method == compress.None {
		return
	}
	cols := g.est.colsOf(d)
	// ColSet: same column set, different order, ORD-IND only. A clustered
	// index and a secondary one never match: the secondary carries a RID.
	if d.Method.Class() == compress.OrderIndependent {
		key := setKey(cols)
		for _, other := range g.order {
			if other == n || other.Def.Method != d.Method || other.Def.Clustered != d.Clustered {
				continue
			}
			if other.Def.MV != nil || other.Def.IsPartial() {
				continue
			}
			if !strings.EqualFold(other.Def.Table, d.Table) {
				continue
			}
			if setKey(g.est.colsOf(other.Def)) == key {
				n.Deductions = append(n.Deductions, &Deduction{Kind: DeduceColSet, Children: []*Node{other}})
			}
		}
	}
	if len(cols) < 2 || d.Clustered {
		return
	}
	// ColExt from singletons: A+B+...+K.
	var singles []*Node
	for _, c := range cols {
		child := (&index.Def{Table: d.Table, KeyCols: []string{c}}).WithMethod(d.Method)
		singles = append(singles, g.node(child))
	}
	n.Deductions = append(n.Deductions, &Deduction{Kind: DeduceColExt, Children: singles})
	// ColExt from prefix + last: AB+C.
	if len(cols) >= 3 {
		prefix := (&index.Def{Table: d.Table, KeyCols: cols[:len(cols)-1]}).WithMethod(d.Method)
		last := (&index.Def{Table: d.Table, KeyCols: []string{cols[len(cols)-1]}}).WithMethod(d.Method)
		n.Deductions = append(n.Deductions, &Deduction{Kind: DeduceColExt, Children: []*Node{g.node(prefix), g.node(last)}})
	}
	// ColExt from another target that is a column subset, plus singletons
	// for the leftover columns. Valid for ORD-IND methods, where column
	// order inside the parts does not matter; this is the sharing that lets
	// the planner reuse sampled targets across wide candidates.
	if d.Method.Class() != compress.OrderIndependent {
		return
	}
	const maxSubsetDeductions = 4
	added := 0
	have := make(map[string]bool, len(cols))
	for _, c := range cols {
		have[strings.ToLower(c)] = true
	}
	for _, other := range g.order {
		if added >= maxSubsetDeductions {
			break
		}
		if other == n || other.Def.Method != d.Method || !other.Target {
			continue
		}
		if other.Def.MV != nil || other.Def.IsPartial() || other.Def.Clustered {
			continue
		}
		if !strings.EqualFold(other.Def.Table, d.Table) {
			continue
		}
		oCols := other.Def.Columns()
		if len(oCols) < 2 || len(oCols) >= len(cols) {
			continue
		}
		subset := true
		for _, c := range oCols {
			if !have[strings.ToLower(c)] {
				subset = false
				break
			}
		}
		if !subset {
			continue
		}
		children := []*Node{other}
		covered := make(map[string]bool, len(oCols))
		for _, c := range oCols {
			covered[strings.ToLower(c)] = true
		}
		for _, c := range cols {
			if !covered[strings.ToLower(c)] {
				children = append(children, g.node((&index.Def{Table: d.Table, KeyCols: []string{c}}).WithMethod(d.Method)))
			}
		}
		n.Deductions = append(n.Deductions, &Deduction{Kind: DeduceColExt, Children: children})
		added++
	}
}

// skeleton is the f-independent part of the estimation graph: the node
// universe, the candidate deduction wiring (the O(n²) column-set matching of
// addDeductions) and each node's plan shape in pages. A solver instantiates
// it per sampling fraction — only node costs (linear in f) and sampling
// errors depend on f — so an f-grid sweep builds the graph once.
type skeleton struct {
	proto *graph
	pages []float64 // PlanPages per node, in proto order
}

// newSkeleton builds the graph prototype for a target set. The estimator is
// used for statistics only; any fraction's estimator over the same database
// works.
func newSkeleton(est *Estimator, targets, existing []*index.Def) *skeleton {
	g := buildGraph(est, targets, existing)
	pages := make([]float64, len(g.order))
	for i, n := range g.order {
		pages[i] = est.PlanPages(n.Def)
	}
	return &skeleton{proto: g, pages: pages}
}

// graph instantiates a fresh solvable graph at fraction f: nodes are cloned
// (solvers mutate states), deductions rewired onto the clones, and each
// node's cost is its sampleCost at f (zero for existing indexes).
func (s *skeleton) graph(est *Estimator, f float64) *graph {
	g := &graph{est: est, f: f, nodes: make(map[string]*Node, len(s.proto.order))}
	clones := make(map[*Node]*Node, len(s.proto.order))
	for i, n := range s.proto.order {
		cost := sampleCost(s.pages[i], f)
		if n.Existing {
			cost = 0
		}
		c := &Node{Def: n.Def, Target: n.Target, Existing: n.Existing,
			State: n.State, Mean: n.Mean, Std: n.Std, Cost: cost}
		clones[n] = c
		g.nodes[c.Def.ID()] = c
		g.order = append(g.order, c)
	}
	for i, n := range s.proto.order {
		c := g.order[i]
		for _, d := range n.Deductions {
			nd := &Deduction{Kind: d.Kind, Children: make([]*Node, len(d.Children))}
			for j, ch := range d.Children {
				nd.Children[j] = clones[ch]
			}
			c.Deductions = append(c.Deductions, nd)
		}
	}
	return g
}

func setKey(cols []string) string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = strings.ToLower(c)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// deducedError composes the error of a deduction applied to its children's
// current errors. A child not yet decided counts as sampled at the graph's
// f: that is what enabling the deduction would cost it.
func (g *graph) deducedError(n *Node, ded *Deduction) (mean, std float64) {
	return g.est.Model.deducedError(ded.Kind, n.Def.Method, len(ded.Children), func(i int) (float64, float64) {
		c := ded.Children[i]
		if !g.known(c) {
			return g.sampleError(c)
		}
		return c.Mean, c.Std
	})
}

// enabled reports whether every child of ded is known; sampledOnly further
// requires each to be sampled rather than deduced.
func (g *graph) enabled(ded *Deduction, sampledOnly bool) bool {
	for _, c := range ded.Children {
		if !g.known(c) || (sampledOnly && c.State != StateSampled) {
			return false
		}
	}
	return true
}

// bestDeduction returns n's enabled deduction with the highest probability
// of meeting the accuracy constraint (e, q), and its error; nil when none
// meets it. sampledColSet requires a ColSet deduction's child to be sampled.
func (g *graph) bestDeduction(n *Node, e, q float64, sampledColSet bool) (best *Deduction, mean, std float64) {
	bestProb := -1.0
	for _, ded := range n.Deductions {
		if !g.enabled(ded, sampledColSet && ded.Kind == DeduceColSet) {
			continue
		}
		m, s := g.deducedError(n, ded)
		if p := ProbWithin(m, s, e); p >= q && p > bestProb {
			best, mean, std, bestProb = ded, m, s, p
		}
	}
	return best, mean, std
}

func (g *graph) sampleError(n *Node) (float64, float64) {
	if n.Existing {
		return 1, 0
	}
	return g.est.Model.SampleError(n.Def.Method, g.f)
}

func (g *graph) known(n *Node) bool { return n.State != StateNone }
