// Package sizeest is the size-estimation orchestration layer: it owns the
// wiring of sampling + sizing (Sections 4–5 of the paper) behind a single
// Oracle that the advisor consumes. The oracle
//
//   - sweeps the f-grid over one shared sample store (sizing.Sweep): each
//     smaller-f sample is a deterministic prefix of the largest-f sample, so
//     one table scan serves every grid point;
//   - executes the chosen estimation plan DAG-parallel: the deduction graph
//     is level-scheduled (children strictly before parents) onto a worker
//     pool, and SampleCF targets sharing a (table, key-column) structure are
//     batched so one sorted sample scan serves all compression variants;
//   - admits late-arriving definitions (merged structures, backtracking
//     variants) into the live deduction graph, deducing them when a valid
//     parent/child exists and falling back to SampleCF otherwise.
//
// The oracle's plan-execution time and admission counters, like every
// sampling and SampleCF time and count beneath it, add into the recorder of
// its sample store (Recorder).
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
	"cadb/internal/index"
	"cadb/internal/obs"
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
	// Workers bounds the f-grid sweep and the plan-execution pool;
	// non-positive means one per CPU. Estimates are byte-identical at any
	// setting.
	Workers int
	// UseDeduction enables the deduction framework (the sweep solves with
	// Greedy); off, the sweep solves with All and admissions always SampleCF.
	UseDeduction bool
}

// Oracle is the size-estimation service the advisor consumes: Prepare solves
// and executes an estimation plan for the initial target set (exactly once,
// before any other method), EstimateUncompressed serves statistics-only
// estimates, and Admit takes late arrivals.
type Oracle struct {
	db  *catalog.Database
	cfg Config

	store *sampling.Store

	mu   sync.Mutex
	est  *sizing.Estimator
	plan *sizing.Plan
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
func (o *Oracle) Prepare(targets []*index.Def) (map[string]*sizing.Estimate, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.est != nil {
		return nil, fmt.Errorf("sizeest: Prepare called twice")
	}
	if len(targets) == 0 {
		o.est = sizing.NewEstimator(o.db, o.store.Manager(defaultSampleF))
		return map[string]*sizing.Estimate{}, nil
	}
	o.plan, o.est = sizing.Sweep(o.store, targets, o.cfg.UseDeduction, o.cfg.ErrTolerance, o.cfg.Confidence, o.cfg.Workers)
	start := time.Now()
	out, err := o.execute(o.plan)
	elapsed := time.Since(start)
	o.Recorder().Add(func(t *obs.Timing) { t.PlanExecute += elapsed })
	return out, err
}

// execute runs the plan DAG-parallel: nodes are level-scheduled so every
// deduction's children complete strictly before it, each level fans out on
// the worker pool, and sampled nodes are batched by structure so one sorted
// sample scan serves all compression variants sharing (table, key columns).
func (o *Oracle) execute(p *sizing.Plan) (map[string]*sizing.Estimate, error) {
	levels, err := levelSchedule(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*sizing.Estimate, len(p.Nodes))
	for li, level := range levels {
		var ests []*sizing.Estimate
		var errs []error
		if li == 0 {
			// Leaves: SampleCF (or cached exact sizes). Group by structure;
			// one worker materializes a group's shared sample index once and
			// sizes every variant off it.
			groups, order := batchByStructure(level)
			ests = make([]*sizing.Estimate, len(level))
			errs = make([]error, len(level))
			par.For(o.cfg.Workers, len(groups), func(gi int) {
				for _, slot := range groups[order[gi]] {
					ests[slot], errs[slot] = o.est.SampleCF(level[slot].Def)
				}
			})
		} else {
			ests = make([]*sizing.Estimate, len(level))
			errs = make([]error, len(level))
			extras := make([][]*sizing.Estimate, len(level))
			par.For(o.cfg.Workers, len(level), func(i int) {
				ests[i], errs[i] = o.deduce(level[i],
					func(d *index.Def) *sizing.Estimate { return out[d.ID()] },
					func(e *sizing.Estimate) { extras[i] = append(extras[i], e) })
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
func (o *Oracle) deduce(n *sizing.Node, lookup func(*index.Def) *sizing.Estimate, record func(*sizing.Estimate)) (*sizing.Estimate, error) {
	return o.est.Deduce(n, func(c *sizing.Node) (*sizing.Estimate, error) {
		if e := lookup(c.Def); e != nil {
			return e, nil
		}
		e, err := o.est.SampleCF(c.Def)
		if err == nil && record != nil {
			record(e)
		}
		return e, err
	})
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

// batchByStructure groups level-0 slots by structure ID, so all compression
// variants of one structure run on the same worker against one shared
// materialization. Returns the groups and a sorted key order for
// deterministic scheduling.
func batchByStructure(level []*sizing.Node) (map[string][]int, []string) {
	groups := make(map[string][]int)
	for i, n := range level {
		key := n.Def.StructureID()
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
func (o *Oracle) EstimateUncompressed(d *index.Def) (*sizing.Estimate, error) {
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
func (o *Oracle) Admit(d *index.Def) (*sizing.Estimate, error) {
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
		o.Recorder().Add(func(t *obs.Timing) { t.AdmittedSampled++ })
		return o.est.SampleCF(d)
	}
	n := o.plan.Admit(o.est, d, o.cfg.ErrTolerance, o.cfg.Confidence)
	if n.State == sizing.StateDeduced {
		est, err := o.deduce(n, func(cd *index.Def) *sizing.Estimate {
			if e, ok := o.est.Cached(cd); ok {
				return e
			}
			return nil
		}, nil)
		if err == nil {
			o.Recorder().Add(func(t *obs.Timing) { t.AdmittedDeduced++ })
			return est, nil
		}
		// The deduction machinery rejected what the graph offered (e.g. a
		// validation edge case); demote the node and sample it instead.
		o.plan.Demote(o.est, n, o.cfg.ErrTolerance, o.cfg.Confidence)
	}
	o.Recorder().Add(func(t *obs.Timing) { t.AdmittedSampled++ })
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
func (o *Oracle) Estimator() *sizing.Estimator { return o.estimator() }

func (o *Oracle) estimator() *sizing.Estimator {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.est
}

// Recorder returns the recorder of the oracle's sample store: sample builds,
// plan solve and execution, SampleCF and admissions all add into it.
func (o *Oracle) Recorder() *obs.Recorder { return o.store.Recorder() }
