package optimizer

import (
	"sync/atomic"

	"cadb/internal/workload"
)

// The incremental what-if evaluation layer.
//
// Greedy enumeration explores configurations that differ from a base by a
// single index (an add during the greedy step, a swap during backtracking
// recovery). A query's price moves only with a structure that can serve it
// — one whose memoized term for the query is usable — or with a clustered
// one on a table it reads; a write's with one it maintains or may locate
// rows through (pricing.changes). The Evaluator compiles the workload's
// statements and interns the base configuration's members once, keeps the
// per-statement cost vector of the base, and answers
// CostWithAdd/CostWithReplace by re-pricing only the statements the delta
// changes — through memo.price, like every other costing call — reusing
// the base vector for everything else. A what-if allocates the neighbor's
// Configuration node and nothing that grows with the workload or the
// configuration.
//
// Determinism contract: the returned total is bit-identical to a full
// CostModel.WorkloadCost recompute. Reused entries hold the exact floats a
// recompute would produce (pricing is deterministic), and the total is
// summed in statement order with the same weight multiplication — never
// maintained incrementally, which could drift in floating point.
// TestEvaluatorMatchesFullRecompute and TestEvaluatorRandomDeltas enforce
// this.
//
// An Evaluator is immutable after construction; CostWithAdd/CostWithReplace
// are safe to call from many goroutines at once (the enumeration worker pool
// does). Advance returns a new Evaluator rebased on a chosen neighbor.

// EvaluatorStats accumulates delta-evaluation counters, shared by every
// Evaluator derived via Advance (and across the advisor's nested enumeration
// passes). Safe for concurrent use.
type EvaluatorStats struct {
	evaluations      atomic.Uint64
	deltaStatements  atomic.Uint64
	reusedStatements atomic.Uint64
}

// Snapshot returns the counters: delta evaluations performed, statements
// re-planned, and statement costs reused from a base vector.
func (s *EvaluatorStats) Snapshot() (evaluations, delta, reused uint64) {
	return s.evaluations.Load(), s.deltaStatements.Load(), s.reusedStatements.Load()
}

// Evaluator answers what-if workload costs for single-index deltas against a
// base configuration by incremental re-pricing.
type Evaluator struct {
	m  *memo
	wl *workload.Workload
	// stmts and stats are shared across Advance generations.
	stmts []*compiledStmt
	stats *EvaluatorStats

	base    *Configuration
	members []*handle // base's members, interned
	costs   []float64 // per-statement cost under base, in workload order
	total   float64   // Σ weight·cost, summed in workload order
}

// NewEvaluator builds an evaluator for the workload based at cfg, paying one
// full workload costing. stats may be nil.
func NewEvaluator(cm *CostModel, wl *workload.Workload, cfg *Configuration, stats *EvaluatorStats) *Evaluator {
	if stats == nil {
		stats = &EvaluatorStats{}
	}
	m := cm.memo.Load()
	e := &Evaluator{m: m, wl: wl, stmts: make([]*compiledStmt, len(wl.Statements)), stats: stats}
	for i, s := range wl.Statements {
		e.stmts[i] = m.compile(s)
	}
	return e.rebase(cfg, nil)
}

// rebase returns an evaluator based at next. With a nil touched list every
// statement is priced; otherwise only those a touched structure changes, the
// rest keeping the receiver's costs.
func (e *Evaluator) rebase(next *Configuration, touched []*handle) *Evaluator {
	ne := &Evaluator{m: e.m, wl: e.wl, stmts: e.stmts, stats: e.stats,
		base: next, members: e.m.resolve(next), costs: make([]float64, len(e.stmts))}
	p := pricing{m: e.m}
	for i, s := range e.wl.Statements {
		p.cs = e.stmts[i]
		if touched == nil || p.changesAny(touched) {
			ne.costs[i] = e.m.price(p.cs, ne.members, nil)
		} else {
			ne.costs[i] = e.costs[i]
		}
		ne.total += s.Weight * ne.costs[i]
	}
	p.flush()
	return ne
}

// Base returns the base configuration.
func (e *Evaluator) Base() *Configuration { return e.base }

// Total returns the workload cost of the base configuration, bit-identical
// to CostModel.WorkloadCost(wl, Base()).
func (e *Evaluator) Total() float64 { return e.total }

// costUnder totals the workload under the neighbor whose interned members
// are cfg, re-pricing only statements a touched structure changes.
func (e *Evaluator) costUnder(cfg []*handle, touched ...*handle) float64 {
	e.stats.evaluations.Add(1)
	var total float64
	var delta, reused uint64
	p := pricing{m: e.m}
	for i, s := range e.wl.Statements {
		c := e.costs[i]
		p.cs = e.stmts[i]
		if p.changesAny(touched) {
			c = e.m.price(p.cs, cfg, nil)
			delta++
		} else {
			reused++
		}
		total += s.Weight * c
	}
	p.flush()
	e.stats.deltaStatements.Add(delta)
	e.stats.reusedStatements.Add(reused)
	return total
}

// neighborCap is the configuration size up to which a what-if's member list
// lives on the stack (the advisor caps a recommendation at 40 structures).
const neighborCap = 64

// CostWithAdd returns the configuration Base().With(h) and its workload
// cost, re-pricing only the statements h can change.
func (e *Evaluator) CostWithAdd(h *HypoIndex) (*Configuration, float64) {
	hd := e.m.intern(h)
	var buf [neighborCap]*handle
	cfg := append(append(buf[:0], e.members...), hd)
	return e.base.With(h), e.costUnder(cfg, hd)
}

// CostWithReplace returns the configuration Base().Replace(old, new) and its
// workload cost, re-pricing only the statements the swap can change.
func (e *Evaluator) CostWithReplace(old, new *HypoIndex) (*Configuration, float64) {
	oldH, newH := e.m.intern(old), e.m.intern(new)
	var buf [neighborCap]*handle
	cfg := append(buf[:0], e.members...)
	for i, hd := range cfg {
		if hd == oldH {
			cfg[i] = newH
		}
	}
	return e.base.Replace(old, new), e.costUnder(cfg, oldH, newH)
}

// Advance returns a new evaluator rebased on next, refreshing only the cost
// vector entries the touched indexes (the delta between Base() and next)
// can change. Compiled statements and stats are shared with the receiver.
func (e *Evaluator) Advance(next *Configuration, touched ...*HypoIndex) *Evaluator {
	hds := make([]*handle, 0, len(touched))
	for _, h := range touched {
		if h != nil {
			hds = append(hds, e.m.intern(h))
		}
	}
	return e.rebase(next, hds)
}
