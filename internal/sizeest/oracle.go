// Package sizeest is the size-estimation orchestration layer: it owns the
// wiring of sampling + estimator + sizing (Sections 4–5 of the paper) behind
// a single Oracle that the advisor consumes. The oracle
//
//   - shares samples across the f-grid sweep: each smaller-f sample is a
//     deterministic prefix of the largest-f sample (sampling.Store), so one
//     table scan serves every grid point;
//   - executes the chosen estimation plan DAG-parallel: the deduction graph
//     is level-scheduled (children strictly before parents) onto a worker
//     pool, and SampleCF targets sharing a (table, key-column) structure are
//     batched so one sorted sample scan serves all compression variants;
//   - admits late-arriving definitions (merged structures, backtracking
//     variants) into the live deduction graph, deducing them when a valid
//     parent/child exists and falling back to SampleCF otherwise.
//
// Estimate-identity invariant: estimates are byte-identical to the serial
// sizing.Execute path at any worker count — every node's estimate is a pure
// function of its definition, the shared samples, and its children's
// estimates, and level scheduling guarantees children are complete before
// any parent runs.
package sizeest

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/estimator"
	"cadb/internal/index"
	"cadb/internal/par"
	"cadb/internal/sampling"
	"cadb/internal/sizing"
)

// Config parameterizes an Oracle.
type Config struct {
	// ErrTolerance (e) and Confidence (q) form the accuracy constraint of
	// the estimation-plan search (Section 5.1). Zero values default to the
	// advisor's 0.5 / 0.9.
	ErrTolerance float64
	Confidence   float64
	Seed         int64
	// Workers bounds the plan-execution pool; non-positive means one per
	// CPU. Estimates are byte-identical at any setting.
	Workers int
	// UseDeduction enables the deduction framework (skeleton-shared Greedy);
	// off solves with the skeleton's All and admissions always SampleCF.
	UseDeduction bool
}

// Accounting is the Figure 11 runtime split of the size-estimation layer,
// plus the oracle's admission counters.
type Accounting struct {
	SampleBuild      time.Duration // shared sample permutations + synopses
	SampleBuildPages int64
	PlanSolve        time.Duration // graph search, every f-grid point
	PlanExecute      time.Duration // DAG-parallel plan execution wall time
	TableSampleCF    time.Duration
	PartialSampleCF  time.Duration
	MVSampleCF       time.Duration
	TotalCost        float64 // abstract cost units (sample pages)
	SampleCFCalls    int
	// AdmittedDeduced / AdmittedSampled split the late admissions by path.
	AdmittedDeduced int
	AdmittedSampled int
}

// Oracle is the size-estimation service the advisor consumes: Prepare solves
// and executes an estimation plan for the initial target set (exactly once,
// before any other method), EstimateUncompressed serves statistics-only
// estimates, and Admit takes late arrivals.
type Oracle struct {
	db  *catalog.Database
	cfg Config

	store *sampling.Store

	mu           sync.Mutex
	est          *estimator.Estimator
	plan         *sizing.Plan
	execTime     time.Duration
	admitDeduced int
	admitSampled int
}

// defaultSampleF is the fraction used when Prepare sees no compressed
// targets but uncompressed/partial estimates still need a sample.
const defaultSampleF = 0.05

// New creates an oracle over a fresh shared sample store.
func New(db *catalog.Database, cfg Config) *Oracle {
	if cfg.ErrTolerance <= 0 {
		cfg.ErrTolerance = 0.5
	}
	if cfg.Confidence <= 0 {
		cfg.Confidence = 0.9
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Oracle{db: db, cfg: cfg, store: sampling.NewStore(db, cfg.Seed)}
}

// Prepare solves the estimation plan over the f-grid and executes it,
// returning the estimates for every plan node keyed by Def.ID().
func (o *Oracle) Prepare(targets []*index.Def) (map[string]*estimator.Estimate, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.est != nil {
		return nil, fmt.Errorf("sizeest: Prepare called twice")
	}
	if len(targets) == 0 {
		o.est = estimator.New(o.db, o.store.Manager(defaultSampleF))
		return map[string]*estimator.Estimate{}, nil
	}
	plan, est := o.sweep(targets)
	o.plan, o.est = plan, est
	start := time.Now()
	out, err := o.execute(plan)
	o.execTime = time.Since(start)
	return out, err
}

// sweep solves the estimation plan at every f-grid point concurrently — the
// solvers are independent, stats-only searches over the shared store — and
// reduces the results serially in grid order with the same winner rule as
// sizing.SweepShared, so the parallel sweep picks the identical plan at any
// worker count. The f-independent deduction graph is built once
// (sizing.Skeleton) and instantiated per grid point. Losing grid points'
// accounting folds into the winner and the plan's SolveTime reports the
// grid's total search effort.
func (o *Oracle) sweep(targets []*index.Def) (*sizing.Plan, *estimator.Estimator) {
	grid := sizing.DefaultFGrid()
	type point struct {
		plan  *sizing.Plan
		est   *estimator.Estimator
		solve time.Duration
	}
	pts := make([]point, len(grid))
	for i, f := range grid {
		pts[i].est = estimator.New(o.db, o.store.Manager(f))
	}
	start := time.Now()
	skel := sizing.NewSkeleton(pts[0].est, targets, nil)
	skelTime := time.Since(start)
	solve := skel.All
	if o.cfg.UseDeduction {
		solve = skel.Greedy
	}
	par.For(o.cfg.Workers, len(grid), func(i int) {
		start := time.Now()
		plan := solve(pts[i].est, o.cfg.ErrTolerance, o.cfg.Confidence, grid[i])
		pts[i].plan = plan
		pts[i].solve = time.Since(start)
	})
	best := 0
	solveTime := skelTime
	for i, p := range pts {
		solveTime += p.solve
		if i == 0 {
			continue
		}
		b := pts[best].plan
		if (p.plan.Feasible && !b.Feasible) ||
			(p.plan.Feasible == b.Feasible && p.plan.TotalCost < b.TotalCost) {
			best = i
		}
	}
	plan, est := pts[best].plan, pts[best].est
	plan.SolveTime = solveTime
	for i := range pts {
		if i != best {
			est.AbsorbAccounting(pts[i].est)
		}
	}
	return plan, est
}

// execute runs the plan DAG-parallel: nodes are level-scheduled so every
// deduction's children complete strictly before it, each level fans out on
// the worker pool, and sampled nodes are batched by structure so one sorted
// sample scan serves all compression variants sharing (table, key columns).
func (o *Oracle) execute(p *sizing.Plan) (map[string]*estimator.Estimate, error) {
	levels, err := levelSchedule(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*estimator.Estimate, len(p.Nodes))
	for li, level := range levels {
		var ests []*estimator.Estimate
		var errs []error
		if li == 0 {
			// Leaves: SampleCF (or cached exact sizes). Group by structure;
			// one worker materializes a group's shared sample index once and
			// sizes every variant off it.
			groups, order := batchByStructure(level)
			ests = make([]*estimator.Estimate, len(level))
			errs = make([]error, len(level))
			par.For(o.cfg.Workers, len(groups), func(gi int) {
				for _, slot := range groups[order[gi]] {
					ests[slot], errs[slot] = o.est.SampleCF(level[slot].Def)
				}
			})
		} else {
			ests = make([]*estimator.Estimate, len(level))
			errs = make([]error, len(level))
			extras := make([][]*estimator.Estimate, len(level))
			par.For(o.cfg.Workers, len(level), func(i int) {
				ests[i], errs[i] = o.deduce(level[i],
					func(d *index.Def) *estimator.Estimate { return out[d.ID()] },
					func(e *estimator.Estimate) { extras[i] = append(extras[i], e) })
			})
			// Fallback-sampled children enter the result map like the serial
			// Execute path stores them; slot order keeps first-wins
			// deterministic (duplicates are the same cached estimate anyway).
			for _, es := range extras {
				for _, e := range es {
					if _, ok := out[e.Def.ID()]; !ok {
						out[e.Def.ID()] = e
					}
				}
			}
		}
		// Reduce the level serially in plan order: deterministic error
		// selection, and the out map is only written between levels.
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			out[level[i].Def.ID()] = ests[i]
		}
	}
	return out, nil
}

// deduce executes one DEDUCED node, resolving children through lookup and
// falling back to SampleCF for any child missing from it (mirroring the
// serial sizing.Execute semantics). record, when non-nil, receives each
// fallback-sampled child estimate so the caller can publish it.
func (o *Oracle) deduce(n *sizing.Node, lookup func(*index.Def) *estimator.Estimate, record func(*estimator.Estimate)) (*estimator.Estimate, error) {
	child := func(c *sizing.Node) (*estimator.Estimate, error) {
		if e := lookup(c.Def); e != nil {
			return e, nil
		}
		e, err := o.est.SampleCF(c.Def)
		if err == nil && record != nil {
			record(e)
		}
		return e, err
	}
	switch n.Chosen.Kind {
	case sizing.DeduceColSet:
		c, err := child(n.Chosen.Children[0])
		if err != nil {
			return nil, err
		}
		return o.est.DeduceColSet(n.Def, c)
	case sizing.DeduceColExt:
		parts := make([]*estimator.Estimate, len(n.Chosen.Children))
		for i, c := range n.Chosen.Children {
			var err error
			if parts[i], err = child(c); err != nil {
				return nil, err
			}
		}
		return o.est.DeduceColExt(n.Def, parts)
	}
	return nil, fmt.Errorf("sizeest: unknown deduction kind %d", n.Chosen.Kind)
}

// levelSchedule assigns every plan node a level: SAMPLED/existing nodes sit
// at level 0, a DEDUCED node one level above its deepest child. Nodes within
// a level keep their plan order.
func levelSchedule(p *sizing.Plan) ([][]*sizing.Node, error) {
	depth := make(map[*sizing.Node]int, len(p.Nodes))
	visiting := make(map[*sizing.Node]bool)
	var walk func(n *sizing.Node) (int, error)
	walk = func(n *sizing.Node) (int, error) {
		if d, ok := depth[n]; ok {
			return d, nil
		}
		if visiting[n] {
			return 0, fmt.Errorf("sizeest: deduction cycle at %s", n.Def)
		}
		d := 0
		if n.State == sizing.StateDeduced && n.Chosen != nil {
			visiting[n] = true
			for _, c := range n.Chosen.Children {
				cd, err := walk(c)
				if err != nil {
					return 0, err
				}
				if cd+1 > d {
					d = cd + 1
				}
			}
			delete(visiting, n)
		}
		depth[n] = d
		return d, nil
	}
	var levels [][]*sizing.Node
	for _, n := range p.Nodes {
		if n.State == sizing.StateNone {
			continue
		}
		d, err := walk(n)
		if err != nil {
			return nil, err
		}
		for len(levels) <= d {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], n)
	}
	return levels, nil
}

// batchByStructure groups level-0 slots by the uncompressed structure ID, so
// all compression variants of one structure run on the same worker against
// one shared materialization. Returns the groups and a sorted key order for
// deterministic scheduling.
func batchByStructure(level []*sizing.Node) (map[string][]int, []string) {
	groups := make(map[string][]int)
	for i, n := range level {
		key := n.Def.Uncompressed().ID()
		groups[key] = append(groups[key], i)
	}
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Strings(order)
	return groups, order
}

// EstimateUncompressed serves the statistics-only estimate for an
// uncompressed definition.
func (o *Oracle) EstimateUncompressed(d *index.Def) (*estimator.Estimate, error) {
	est := o.estimator()
	if est == nil {
		return nil, fmt.Errorf("sizeest: EstimateUncompressed before Prepare")
	}
	return est.EstimateUncompressed(d)
}

// Admit estimates a definition that did not exist when the plan was solved:
// insert it into the live deduction graph and deduce it when an executed
// parent/child supports it; otherwise SampleCF. Admissions are serialized, so
// the graph grows — and later arrivals deduce from earlier ones —
// deterministically.
func (o *Oracle) Admit(d *index.Def) (*estimator.Estimate, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.est == nil {
		return nil, fmt.Errorf("sizeest: Admit before Prepare")
	}
	if est, ok := o.est.Cached(d); ok {
		return est, nil
	}
	if d.Method == compress.None && !d.IsMixed() {
		return o.est.EstimateUncompressed(d)
	}
	// Mixed per-column designs always sample: the deduction graph reasons
	// about uniform methods (ORD-IND column-set deductions, per-method error
	// bands) and does not model design vectors. The sample index is shared
	// with the structure's uniform variants, so this stays cheap.
	if o.plan == nil || !o.cfg.UseDeduction || d.IsMixed() {
		o.admitSampled++
		return o.est.SampleCF(d)
	}
	n := o.plan.Admit(o.est, d, o.cfg.ErrTolerance, o.cfg.Confidence)
	if n.State == sizing.StateDeduced {
		est, err := o.deduce(n, func(cd *index.Def) *estimator.Estimate {
			if e, ok := o.est.Cached(cd); ok {
				return e
			}
			return nil
		}, nil)
		if err == nil {
			o.admitDeduced++
			return est, nil
		}
		// The deduction machinery rejected what the graph offered (e.g. a
		// validation edge case); demote the node and sample it instead.
		o.plan.Demote(o.est, n, o.cfg.ErrTolerance, o.cfg.Confidence)
	}
	o.admitSampled++
	return o.est.SampleCF(d)
}

// Plan returns the executed estimation plan (nil when Prepare saw no
// targets).
func (o *Oracle) Plan() *sizing.Plan {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.plan
}

// Estimator exposes the underlying estimator (winning f-grid point).
func (o *Oracle) Estimator() *estimator.Estimator { return o.estimator() }

func (o *Oracle) estimator() *estimator.Estimator {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.est
}

// Accounting reports the layer's cumulative runtime split and counters. Call
// between phases (not concurrently with estimation work), like the
// estimator's own accounting fields.
func (o *Oracle) Accounting() Accounting {
	o.mu.Lock()
	defer o.mu.Unlock()
	a := Accounting{
		PlanExecute:     o.execTime,
		AdmittedDeduced: o.admitDeduced,
		AdmittedSampled: o.admitSampled,
	}
	if o.plan != nil {
		a.PlanSolve = o.plan.SolveTime
	}
	if o.est != nil {
		// The store charges each table's shared permutation build to the one
		// manager that triggered it, so the winner's manager accounting (plus
		// the absorbed losers') already covers the store's scans exactly once.
		a.SampleBuild = o.est.Mgr.SampleBuildTime + o.est.Mgr.SynopsisBuildTime
		a.SampleBuildPages = o.est.Mgr.SampleBuildPages
		a.TableSampleCF = o.est.TableSampleCFTime
		a.PartialSampleCF = o.est.PartialSampleCFTime
		a.MVSampleCF = o.est.MVSampleCFTime
		a.TotalCost = o.est.TotalCost
		a.SampleCFCalls = o.est.SampleCFCalls
	}
	return a
}
