// Package core implements the paper's primary contribution: a
// compression-aware physical database design advisor in the architecture of
// Microsoft's Database Engine Tuning Advisor (Figure 1). The pipeline is:
//
//  1. Candidate selection — per query, generate syntactically relevant
//     indexes (plus partial-index and MV candidates), expand compressed
//     variants, and keep either the top-k cheapest configurations (classic
//     DTA) or the full size/cost skyline (Section 6.1).
//  2. Size estimation — estimate every compressed candidate's size through
//     the SampleCF + deduction framework (Sections 4–5).
//  3. Merging — combine candidates that serve multiple queries (index
//     merging, with compressed variants of merged structures).
//  4. Enumeration — greedy search under the storage bound, with the
//     backtracking recovery step that swaps members for their compressed
//     variants when a greedy pick overshoots the budget (Section 6.2).
//
// Running with Options.EnableCompression=false reproduces the baseline DTA;
// Options.Staged reproduces the decoupled select-then-compress strategy the
// introduction's Example 1 warns about.
package core

import (
	"fmt"
	"sort"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/estimator"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/par"
	"cadb/internal/sizeest"
	"cadb/internal/sizing"
	"cadb/internal/workload"
)

// Options configures one advisor run.
type Options struct {
	// Budget is the storage bound in bytes (relative to the heap-only
	// database; compressing a clustered index frees budget).
	Budget int64

	// EnableCompression turns the tool into DTAc; false reproduces DTA.
	EnableCompression bool
	// Methods lists the compression methods to consider (default ROW, PAGE —
	// SQL Server's two packages).
	Methods []compress.Method

	// Skyline keeps the whole size/cost skyline per query instead of the
	// top-k cheapest configurations (Section 6.1).
	Skyline bool
	// Backtrack enables the oversized-pick recovery in enumeration
	// (Section 6.2).
	Backtrack bool

	// EnablePartial and EnableMV widen the candidate space beyond plain and
	// clustered indexes (the paper's "all features" runs enable both).
	EnablePartial bool
	EnableMV      bool

	// Staged reproduces the naive decoupled baseline: pick indexes without
	// considering compression, then compress everything selected, repeat
	// while space remains.
	Staged bool

	// RefineColumns runs the per-column design refinement after enumeration:
	// each selected structure keeps its uniform-method winner as the seed,
	// then a greedy coordinate-descent sweep tries every method on each leaf
	// column and keeps changes that lower the what-if workload cost within
	// budget. Off, every structure stays uniform (the pre-design-vector
	// behaviour).
	RefineColumns bool

	// UseDeduction controls whether size estimation may use the deduction
	// framework (off reproduces the "w/o deduction" bar of Figure 11).
	UseDeduction bool
	// ErrTolerance (e) and Confidence (q) form the accuracy constraint of
	// the size-estimation problem (Section 5.1).
	ErrTolerance float64
	Confidence   float64

	// Parallelism bounds the worker pool used for what-if costing during
	// enumeration and for candidate size estimation. Non-positive means
	// runtime.GOMAXPROCS(0). Results are byte-identical at any setting:
	// candidates are evaluated concurrently but reduced in deterministic
	// order.
	Parallelism int

	// PoolProfile, when non-nil, makes what-if costing pool-aware: page-I/O
	// terms are discounted by each structure's expected buffer-pool hit rate
	// (see optimizer.PoolProfile), so designs that fit the pool — e.g. a
	// PAGE-compressed hot set — are rewarded beyond their raw page-count
	// reduction. Nil keeps the cold-store model; recommendations stay
	// deterministic either way.
	PoolProfile *optimizer.PoolProfile

	Seed int64
}

// Search bounds every run shares: the per-query candidate count when Skyline
// is off, the recommendation-size cap, and the composite-key width cap of
// candidate generation.
const (
	topK       = 2
	maxIndexes = 40
	maxKeyCols = 3
)

// DefaultOptions returns the full DTAc configuration at the given budget.
func DefaultOptions(budget int64) Options {
	return Options{
		Budget:            budget,
		EnableCompression: true,
		// Uniform enumeration keeps the paper's two packages; GDICT and RLE
		// enter through the per-column refinement sweep, which tries every
		// method on every column of the enumeration winners. That is the
		// pruning that keeps the widened design space within the enumeration
		// time budget — doubling Methods would double candidate variants in
		// the greedy loop for designs refinement reaches anyway.
		Methods:       []compress.Method{compress.Row, compress.Page},
		RefineColumns: true,
		Skyline:       true,
		Backtrack:     true,
		UseDeduction:  true,
		ErrTolerance:  0.5,
		Confidence:    0.9,
		Seed:          1,
	}
}

// DTAOptions returns the compression-blind baseline at the given budget.
func DTAOptions(budget int64) Options {
	o := DefaultOptions(budget)
	o.EnableCompression = false
	o.RefineColumns = false
	o.Skyline = false
	o.Backtrack = false
	return o
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Config      *optimizer.Configuration
	BaseCost    float64
	TotalCost   float64
	Improvement float64 // percent, the paper's reporting metric
	SizeBytes   int64

	// Diagnostics.
	CandidateCount int
	SelectedCount  int
	EstimationPlan *sizing.Plan
	Timing         Timing
}

// Timing is the Figure 11 runtime split, plus the incremental-evaluation
// counters of the what-if layer and the size-oracle counters of the
// estimation layer.
type Timing struct {
	Total          time.Duration
	CandidateGen   time.Duration
	EstimateAll    time.Duration // end-to-end initial size-estimation phase
	SampleBuild    time.Duration // taking/joining samples
	PlanSolve      time.Duration // estimation-plan graph search (all f-grid points)
	PlanExecute    time.Duration // DAG-parallel plan execution wall time
	TableEstimate  time.Duration // SampleCF on plain table indexes
	PartialEstim   time.Duration
	MVEstimate     time.Duration
	Enumerate      time.Duration // includes the per-column refinement sweep
	Refine         time.Duration // per-column design refinement alone
	EstimationCost float64       // abstract cost units (sample pages)

	// Refinements counts the per-column method changes the refinement sweep
	// accepted (0 when RefineColumns is off or every structure stayed
	// uniform).
	Refinements uint64

	// SampleCFCalls counts sample-index builds across the whole run;
	// AdmittedDeduced/AdmittedSampled split the late admissions (merged
	// structures, backtracking variants) by whether the live deduction
	// graph served them for free. EstimationErrors counts estimation
	// failures tolerated (and skipped) by the merge/variant loop.
	SampleCFCalls    uint64
	AdmittedDeduced  uint64
	AdmittedSampled  uint64
	EstimationErrors uint64

	// WhatIfEvaluations counts the candidate configurations delta-costed by
	// the incremental evaluator during enumeration; of the per-statement
	// costs those evaluations needed, DeltaStatements were re-planned and
	// ReusedStatements were served unchanged from the base cost vector.
	WhatIfEvaluations uint64
	DeltaStatements   uint64
	ReusedStatements  uint64
	// CostCacheHits / CostCacheMisses count the atomic-term lookups of
	// enumeration and refinement: a (statement, structure) term served from
	// the cost model's memo, or computed because no earlier what-if needed it.
	CostCacheHits   uint64
	CostCacheMisses uint64
}

// Other returns the non-estimation runtime ("Other" in Figure 11): the total
// minus the full size-estimation phase. EstimateAll is that phase's
// end-to-end wall time (sample build, plan solve, DAG-parallel plan
// execution and the per-kind SampleCF buckets all happen inside it), so it
// is subtracted directly when present. When EstimateAll was not populated
// (hand-built Timing values), the wall-clock sub-phases are summed instead —
// SampleBuild + PlanSolve + PlanExecute; the TableEstimate/PartialEstim/
// MVEstimate buckets are cumulative SampleCF time *inside* PlanExecute and
// must not be added on top, which is the double-count/omission mix that
// previously made "Other" over-report.
func (t Timing) Other() time.Duration {
	est := t.EstimateAll
	if est == 0 {
		est = t.SampleBuild + t.PlanSolve + t.PlanExecute
	}
	if t.Total < est {
		return 0
	}
	return t.Total - est
}

// Advisor ties the pieces together for one database + workload.
type Advisor struct {
	DB   *catalog.Database
	WL   *workload.Workload
	Opts Options
	CM   *optimizer.CostModel

	// pool is the full candidate set (every structure × method), indexed by
	// ID and StructureID; backtracking uses it to find compressed variants
	// of configuration members.
	pool *candidatePool
	// evalStats accumulates incremental-evaluator counters across every
	// enumeration pass of one Recommend run.
	evalStats *optimizer.EvaluatorStats
	// oracle is the size-estimation layer for the current Recommend run;
	// merging and late candidates go through it instead of wiring sampling +
	// estimator + sizing inline.
	oracle *sizeest.Oracle
	// estErrors tallies estimation failures tolerated by the merge/variant
	// loop (surfaced as Timing.EstimationErrors).
	estErrors uint64
	// refinements counts accepted per-column method changes (surfaced as
	// Timing.Refinements).
	refinements uint64
}

// New creates an advisor with the default cost model.
func New(db *catalog.Database, wl *workload.Workload, opts Options) *Advisor {
	if len(opts.Methods) == 0 {
		opts.Methods = []compress.Method{compress.Row, compress.Page}
	}
	if opts.ErrTolerance <= 0 {
		opts.ErrTolerance = 0.5
	}
	if opts.Confidence <= 0 {
		opts.Confidence = 0.9
	}
	cm := optimizer.NewCostModel(db)
	if opts.PoolProfile != nil {
		cm.SetPoolProfile(opts.PoolProfile)
	}
	return &Advisor{DB: db, WL: wl, Opts: opts, CM: cm}
}

// Recommend runs the full pipeline.
func (a *Advisor) Recommend() (*Recommendation, error) {
	start := time.Now()
	rec := &Recommendation{}

	// 1. Candidate structures per query.
	tGen := time.Now()
	structures := a.generateCandidates()
	rec.Timing.CandidateGen = time.Since(tGen)

	// 2. Expand compression variants and estimate sizes through the size
	// oracle (shared f-grid samples, DAG-parallel plan execution).
	a.estErrors = 0
	tEst := time.Now()
	hypos, plan, err := a.estimateAll(structures)
	if err != nil {
		return nil, err
	}
	rec.Timing.EstimateAll = time.Since(tEst)
	rec.EstimationPlan = plan
	rec.CandidateCount = len(hypos)

	// 3. Per-query candidate selection (top-k or skyline), then merging.
	// The pool is seeded in ID-sorted order so variant lookups (and with
	// them backtracking tie-breaks) never depend on map iteration order — a
	// requirement for run-to-run reproducible recommendations.
	sorted := sortedByID(hypos)
	a.pool = newCandidatePool(len(sorted))
	for _, h := range sorted {
		a.pool.add(h)
	}
	selected := a.selectCandidates(sorted)
	selected = a.mergeCandidates(selected)
	for _, h := range selected {
		a.pool.add(h)
	}

	// 4. Enumeration under the budget, through the incremental evaluator.
	// The memo counters are cumulative on the model, so snapshot
	// around enumeration to report this pass alone — matching the scope of
	// the evaluator counters.
	a.evalStats = &optimizer.EvaluatorStats{}
	hits0, misses0 := a.CM.CostCacheStats()
	tEnum := time.Now()
	var cfg *optimizer.Configuration
	if a.Opts.Staged {
		cfg = a.enumerateStaged(selected)
	} else {
		cfg = a.enumerate(selected)
	}
	// 4b. Per-column design refinement: keep each enumeration winner as the
	// seed and greedily retry methods one column at a time (skipped for the
	// staged baseline, which is deliberately compression-naive). Counted
	// inside the Enumerate split — the refinement is part of the search.
	if a.Opts.RefineColumns && !a.Opts.Staged {
		tRefine := time.Now()
		cfg = a.refineColumns(cfg)
		rec.Timing.Refine = time.Since(tRefine)
		rec.Timing.Refinements = a.refinements
	}
	rec.Timing.Enumerate = time.Since(tEnum)
	rec.Timing.WhatIfEvaluations, rec.Timing.DeltaStatements, rec.Timing.ReusedStatements = a.evalStats.Snapshot()
	hits1, misses1 := a.CM.CostCacheStats()
	rec.Timing.CostCacheHits, rec.Timing.CostCacheMisses = hits1-hits0, misses1-misses0

	// Snapshot the size-estimation layer last so merge-time admissions are
	// included in the Figure 11 split.
	acct := a.oracle.Accounting()
	rec.Timing.SampleBuild = acct.SampleBuild
	rec.Timing.PlanSolve = acct.PlanSolve
	rec.Timing.PlanExecute = acct.PlanExecute
	rec.Timing.TableEstimate = acct.TableSampleCF
	rec.Timing.PartialEstim = acct.PartialSampleCF
	rec.Timing.MVEstimate = acct.MVSampleCF
	rec.Timing.EstimationCost = acct.TotalCost
	rec.Timing.SampleCFCalls = uint64(acct.SampleCFCalls)
	rec.Timing.AdmittedDeduced = uint64(acct.AdmittedDeduced)
	rec.Timing.AdmittedSampled = uint64(acct.AdmittedSampled)
	rec.Timing.EstimationErrors = a.estErrors

	rec.Config = cfg
	rec.BaseCost = a.CM.WorkloadCost(a.WL, optimizer.NewConfiguration())
	rec.TotalCost = a.CM.WorkloadCost(a.WL, cfg)
	if rec.BaseCost > 0 {
		rec.Improvement = 100 * (1 - rec.TotalCost/rec.BaseCost)
	}
	rec.SizeBytes = cfg.SizeBytes(a.DB)
	rec.SelectedCount = cfg.Len()
	rec.Timing.Total = time.Since(start)
	return rec, nil
}

// estimateAll sizes every candidate structure and its compression variants
// through the size oracle: the compressed targets go through one estimation
// plan (solved over shared f-grid samples, executed DAG-parallel and
// batched), and uncompressed variants are statistics-only estimates fanned
// over the worker pool.
func (a *Advisor) estimateAll(structures []*index.Def) (map[string]*optimizer.HypoIndex, *sizing.Plan, error) {
	var targets []*index.Def
	var uncompressed []*index.Def
	for _, d := range structures {
		uncompressed = append(uncompressed, d.Uncompressed())
		if a.Opts.EnableCompression || a.Opts.Staged {
			for _, m := range a.Opts.Methods {
				targets = append(targets, d.WithMethod(m))
			}
		}
	}

	workers := a.workers()
	oracle := sizeest.New(a.DB, sizeest.Config{
		ErrTolerance: a.Opts.ErrTolerance,
		Confidence:   a.Opts.Confidence,
		Seed:         a.Opts.Seed,
		Workers:      workers,
		UseDeduction: a.Opts.UseDeduction,
	})
	a.oracle = oracle
	planEsts, err := oracle.Prepare(targets)
	if err != nil {
		return nil, nil, err
	}

	// Size the uncompressed variants concurrently: the defs are distinct,
	// the oracle is safe for concurrent use, and results land in per-index
	// slots so the later reduction order is deterministic.
	uncEsts := make([]*estimator.Estimate, len(uncompressed))
	errs := make([]error, len(uncompressed))
	par.For(workers, len(uncompressed), func(i int) {
		uncEsts[i], errs[i] = oracle.EstimateUncompressed(uncompressed[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	hypos := make(map[string]*optimizer.HypoIndex)
	add := func(e *estimator.Estimate) {
		h := hypoOf(e)
		hypos[h.ID()] = h
	}
	for _, e := range uncEsts {
		add(e)
	}
	for _, d := range targets {
		e := planEsts[d.ID()]
		if e == nil {
			// Every target is a plan node, so this is defensive only: admit
			// any straggler through the incremental path.
			var err error
			if e, err = oracle.Admit(d); err != nil {
				return nil, nil, err
			}
		}
		add(e)
	}
	return hypos, oracle.Plan(), nil
}

// hypoOf wraps a size estimate as a hypothetical index.
func hypoOf(e *estimator.Estimate) *optimizer.HypoIndex {
	return optimizer.NewHypoIndex(e.Def, e.Rows, e.Bytes, e.UncompressedBytes)
}

// sortedByID lists the candidates in index-ID order: the one order every
// later stage iterates them in, so nothing downstream depends on map
// iteration and nothing re-sorts.
func sortedByID(hypos map[string]*optimizer.HypoIndex) []*optimizer.HypoIndex {
	ids := make([]string, 0, len(hypos))
	for id := range hypos {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*optimizer.HypoIndex, len(ids))
	for i, id := range ids {
		out[i] = hypos[id]
	}
	return out
}

// String renders the recommendation for reports.
func (r *Recommendation) String() string {
	s := fmt.Sprintf("improvement %.1f%% (cost %.1f -> %.1f), size %d bytes, %d indexes:\n",
		r.Improvement, r.BaseCost, r.TotalCost, r.SizeBytes, r.Config.Len())
	for _, h := range r.Config.Indexes() {
		s += "  " + h.String() + "\n"
	}
	return s
}
