package core

import (
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

var (
	dbOnce sync.Once
	db     *catalog.Database
	wl     *workload.Workload
)

func fixtures() (*catalog.Database, *workload.Workload) {
	dbOnce.Do(func() {
		db = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 11})
		wl = workloads.MustTPCH()
	})
	return db, wl
}

// budget returns a fraction of the heap-only database size, the paper's
// budget scale.
func budget(d *catalog.Database, frac float64) int64 {
	return int64(frac * float64(d.TotalHeapBytes()))
}

func run(t *testing.T, opts Options) *Recommendation {
	t.Helper()
	d, w := fixtures()
	rec, err := New(d, workloads.SelectIntensive(w), opts).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDTAcProducesImprovement(t *testing.T) {
	d, _ := fixtures()
	rec := run(t, DefaultOptions(budget(d, 0.5)))
	if rec.Improvement <= 5 {
		t.Fatalf("DTAc improvement=%.1f%% too small\n%s", rec.Improvement, rec)
	}
	if rec.SizeBytes > budget(d, 0.5) {
		t.Fatalf("budget violated: %d > %d", rec.SizeBytes, budget(d, 0.5))
	}
	if rec.Config.Len() == 0 {
		t.Fatal("no indexes recommended")
	}
}

func TestDTABaselineRespectsNoCompression(t *testing.T) {
	d, _ := fixtures()
	rec := run(t, DTAOptions(budget(d, 0.5)))
	for _, h := range rec.Config.Indexes() {
		if h.Def.Method != compress.None {
			t.Fatalf("DTA must not choose compressed indexes: %s", h.Def)
		}
	}
	if rec.SizeBytes > budget(d, 0.5) {
		t.Fatal("budget violated")
	}
}

func TestDTAcBeatsDTAAtTightBudget(t *testing.T) {
	d, _ := fixtures()
	b := budget(d, 0.1)
	dtac := run(t, DefaultOptions(b))
	dta := run(t, DTAOptions(b))
	if dtac.Improvement <= dta.Improvement {
		t.Fatalf("DTAc (%.1f%%) must beat DTA (%.1f%%) at a tight budget",
			dtac.Improvement, dta.Improvement)
	}
}

func TestBudgetMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full advisor runs in -short mode")
	}
	d, _ := fixtures()
	small := run(t, DefaultOptions(budget(d, 0.05)))
	large := run(t, DefaultOptions(budget(d, 0.8)))
	if large.Improvement < small.Improvement-1 {
		t.Fatalf("more budget should not hurt: %.1f%% vs %.1f%%", large.Improvement, small.Improvement)
	}
}

func TestZeroBudgetCanStillCompressClustered(t *testing.T) {
	// Appendix D: "DTAc might produce indexes even with 0% space budget by
	// compressing existing tables and spending the saved space".
	rec := run(t, DefaultOptions(0))
	if rec.SizeBytes > 0 {
		t.Fatalf("0-budget recommendation must have non-positive net size, got %d", rec.SizeBytes)
	}
	if rec.Improvement < 0 {
		t.Fatalf("0-budget recommendation must not regress: %.1f%%", rec.Improvement)
	}
}

func TestSkylineRetainsMoreCandidatesThanTopK(t *testing.T) {
	d, w := fixtures()
	mk := func(sky bool) int {
		opts := DefaultOptions(budget(d, 0.3))
		opts.Skyline = sky
		a := New(d, workloads.SelectIntensive(w), opts)
		structures := a.generateCandidates()
		hypos, _, err := a.estimateAll(structures)
		if err != nil {
			t.Fatal(err)
		}
		return len(a.selectCandidates(sortedByID(hypos)))
	}
	sky := mk(true)
	topk := mk(false)
	if sky <= topk {
		t.Fatalf("skyline (%d) should retain more candidates than top-k (%d)", sky, topk)
	}
}

func TestBacktrackHelpsAtTightBudget(t *testing.T) {
	d, _ := fixtures()
	b := budget(d, 0.08)
	with := DefaultOptions(b)
	without := DefaultOptions(b)
	without.Backtrack = false
	recWith := run(t, with)
	recWithout := run(t, without)
	// Backtracking changes the greedy path, so tiny per-instance regressions
	// are possible; it must never hurt materially.
	if recWith.Improvement < recWithout.Improvement-2.5 {
		t.Fatalf("backtracking should not hurt materially: %.1f%% vs %.1f%%",
			recWith.Improvement, recWithout.Improvement)
	}
}

func TestInsertIntensiveAvoidsHeavyCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("two full advisor runs in -short mode")
	}
	d, w := fixtures()
	b := budget(d, 0.6)
	sel, err := New(d, workloads.SelectIntensive(w), DefaultOptions(b)).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	ins, err := New(d, workloads.InsertIntensive(w), DefaultOptions(b)).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *Recommendation, m compress.Method) int {
		n := 0
		for _, h := range r.Config.Indexes() {
			if h.Def.Method == m {
				n++
			}
		}
		return n
	}
	// The insert-intensive design must not carry more compressed indexes
	// than the select-intensive one (the paper's Figure 13/15/17 behavior).
	selComp := count(sel, compress.Row) + count(sel, compress.Page)
	insComp := count(ins, compress.Row) + count(ins, compress.Page)
	if insComp > selComp {
		t.Fatalf("insert-heavy design has more compressed indexes (%d) than select-heavy (%d)", insComp, selComp)
	}
	// And fewer indexes overall (maintenance cost).
	if ins.Config.Len() > sel.Config.Len() {
		t.Fatalf("insert-heavy design has more indexes (%d vs %d)",
			ins.Config.Len(), sel.Config.Len())
	}
}

func TestStagedBaselineUnderperformsIntegrated(t *testing.T) {
	d, _ := fixtures()
	b := budget(d, 0.15)
	integrated := run(t, DefaultOptions(b))
	stagedOpts := DefaultOptions(b)
	stagedOpts.Staged = true
	staged := run(t, stagedOpts)
	if staged.Improvement > integrated.Improvement+1 {
		t.Fatalf("staged (%.1f%%) should not beat integrated (%.1f%%)",
			staged.Improvement, integrated.Improvement)
	}
	if staged.SizeBytes > b {
		t.Fatal("staged baseline violated the budget")
	}
}

func TestAllFeaturesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("partial+MV advisor run in -short mode")
	}
	d, w := fixtures()
	opts := DefaultOptions(budget(d, 0.4))
	opts.EnablePartial = true
	opts.EnableMV = true
	rec, err := New(d, workloads.SelectIntensive(w), opts).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatalf("all-features run should improve: %.1f%%", rec.Improvement)
	}
	if rec.Timing.Total <= 0 {
		t.Fatal("timing missing")
	}
}

func TestDeductionReducesEstimationCost(t *testing.T) {
	if testing.Short() {
		t.Skip("two full advisor runs in -short mode")
	}
	d, w := fixtures()
	mkCost := func(dedup bool) float64 {
		opts := DefaultOptions(budget(d, 0.3))
		opts.UseDeduction = dedup
		rec, err := New(d, workloads.SelectIntensive(w), opts).Recommend()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Timing.EstimationCost
	}
	with := mkCost(true)
	without := mkCost(false)
	if with >= without {
		t.Fatalf("deduction should cut estimation cost: with=%v without=%v", with, without)
	}
}

func TestRecommendationStringRenders(t *testing.T) {
	d, _ := fixtures()
	rec := run(t, DefaultOptions(budget(d, 0.2)))
	if len(rec.String()) == 0 {
		t.Fatal("empty recommendation rendering")
	}
}

func TestSizeOracleCountersSurfaced(t *testing.T) {
	// The Figure 11 split and the size-oracle admission counters must reach
	// the recommendation: estimateAll timed end to end, the plan solved and
	// executed, SampleCF calls counted, and the merge loop's late variants
	// admitted through the oracle (not estimated ad hoc).
	d, _ := fixtures()
	rec := run(t, DefaultOptions(budget(d, 0.125)))
	tm := rec.Timing
	if tm.EstimateAll <= 0 || tm.PlanSolve <= 0 || tm.PlanExecute <= 0 {
		t.Fatalf("estimation timing missing: estimateAll=%v planSolve=%v planExec=%v",
			tm.EstimateAll, tm.PlanSolve, tm.PlanExecute)
	}
	if tm.SampleCFCalls == 0 {
		t.Fatal("SampleCFCalls not surfaced")
	}
	if tm.AdmittedDeduced+tm.AdmittedSampled == 0 {
		t.Fatal("merged-candidate variants should be admitted through the oracle")
	}
	if tm.EstimationErrors != 0 {
		t.Fatalf("unexpected estimation errors: %d", tm.EstimationErrors)
	}
}
