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
	"runtime"
	"sort"
	"strings"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/obs"
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

// Timing is the run's Figure 11 runtime split and counters: the snapshot of
// the size oracle's recorder, into which every layer of the run records.
type Timing = obs.Timing

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
	// sizing inline. Its recorder is the run's Timing.
	oracle *sizeest.Oracle
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
	return &Advisor{DB: db, WL: wl, Opts: opts, CM: optimizer.NewCostModel(db)}
}

// Recommend runs the full pipeline.
func (a *Advisor) Recommend() (*Recommendation, error) {
	start := time.Now()
	rec := &Recommendation{}

	// 0. Sorted statistics of the columns the workload filters or groups
	// on, all at once; any other column's are built when first read.
	statsCols := a.sortStats()
	statsTime := time.Since(start)

	// 1. Candidate structures per query.
	tGen := time.Now()
	structures := a.generateCandidates()
	genTime := time.Since(tGen)

	// 2. Expand compression variants and estimate sizes through the size
	// oracle (shared f-grid samples, DAG-parallel plan execution). The
	// oracle's recorder is the run's: every layer records into it.
	tEst := time.Now()
	hypos, plan, err := a.estimateAll(structures)
	if err != nil {
		return nil, err
	}
	estTime := time.Since(tEst)
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
	var refineTime time.Duration
	if a.Opts.RefineColumns && !a.Opts.Staged {
		tRefine := time.Now()
		cfg = a.refineColumns(cfg)
		refineTime = time.Since(tRefine)
	}
	enumTime := time.Since(tEnum)
	hits1, misses1 := a.CM.CostCacheStats()

	rec.Config = cfg
	rec.BaseCost = a.CM.WorkloadCost(a.WL, optimizer.NewConfiguration())
	rec.TotalCost = a.CM.WorkloadCost(a.WL, cfg)
	if rec.BaseCost > 0 {
		rec.Improvement = 100 * (1 - rec.TotalCost/rec.BaseCost)
	}
	rec.SizeBytes = cfg.SizeBytes(a.DB)
	rec.SelectedCount = cfg.Len()
	// The advisor's own phases and the what-if counters go into the
	// recorder once, beside what the estimation layers recorded.
	r := a.oracle.Recorder()
	r.Add(func(t *Timing) {
		t.Stats, t.StatsColumns = statsTime, uint64(statsCols)
		t.CandidateGen, t.EstimateAll, t.Enumerate, t.Refine = genTime, estTime, enumTime, refineTime
		t.WhatIfEvaluations, t.DeltaStatements, t.ReusedStatements = a.evalStats.Snapshot()
		t.CostCacheHits, t.CostCacheMisses = hits1-hits0, misses1-misses0
		t.Total = time.Since(start)
	})
	rec.Timing = r.Timing()
	return rec, nil
}

// sortStats builds the sorted statistics of the columns the run will read
// them for, in one fan-out over every CPU, and returns how many columns that
// is: every column a predicate (of a query, UPDATE or DELETE) names, which
// selectivity and the partial row estimates read, and with MV candidates on,
// every GROUP BY column, which the MV row estimates read. A column it misses
// is sorted by its first reader, with the same result.
func (a *Advisor) sortStats() int {
	type column struct {
		t    *catalog.Table
		name string
	}
	var cols []column
	seen := make(map[column]bool)
	add := func(t *catalog.Table, name string) {
		c := column{t, strings.ToLower(name)}
		if t.Schema.Has(name) && !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	for _, s := range a.WL.Statements {
		q := statementShape(s)
		if q == nil {
			continue
		}
		for _, table := range q.Tables {
			t := a.DB.Table(table)
			if t == nil {
				continue
			}
			for _, p := range q.PredsOn(table, a.hasColumn) {
				add(t, p.Col)
			}
			if !a.Opts.EnableMV {
				continue
			}
			for _, g := range q.GroupBy {
				if g.Table == "" || strings.EqualFold(g.Table, table) {
					add(t, g.Col)
				}
			}
		}
	}
	par.For(runtime.GOMAXPROCS(0), len(cols), func(i int) {
		cols[i].t.Stats().Col(cols[i].name)
	})
	return len(cols)
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
	uncEsts := make([]*sizing.Estimate, len(uncompressed))
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
	add := func(e *sizing.Estimate) {
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
func hypoOf(e *sizing.Estimate) *optimizer.HypoIndex {
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
