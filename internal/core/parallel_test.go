package core

import (
	"fmt"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// renderRec serializes everything the advisor recommends: the configuration
// (index list in order), the costs, and the footprint. Two runs are "the
// same recommendation" iff these bytes match.
func renderRec(rec *Recommendation) string {
	return fmt.Sprintf("base=%v total=%v improvement=%v size=%d selected=%d\n%s",
		rec.BaseCost, rec.TotalCost, rec.Improvement, rec.SizeBytes, rec.SelectedCount, rec.String())
}

// renderCounters serializes the run's counters that must not depend on the
// worker count. CostCacheHits/CostCacheMisses are left out: two workers may
// both miss the same memo term, by design.
func renderCounters(rec *Recommendation) string {
	t := rec.Timing
	return fmt.Sprintf("stats=%d samplecf=%d cost=%v admitted=%d/%d errors=%d whatif=%d delta=%d reused=%d refinements=%d\n",
		t.StatsColumns, t.SampleCFCalls, t.EstimationCost, t.AdmittedDeduced, t.AdmittedSampled, t.EstimationErrors,
		t.WhatIfEvaluations, t.DeltaStatements, t.ReusedStatements, t.Refinements)
}

func recommendAt(t *testing.T, d *catalog.Database, w *workload.Workload, opts Options, parallelism int) *Recommendation {
	t.Helper()
	opts.Parallelism = parallelism
	rec, err := New(d, w, opts).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecommendDeterministic asserts the headline determinism contract: the
// worker-pool enumeration and estimation — now routed through the
// incremental evaluator — return byte-identical recommendations at
// Parallelism 1, 2 and 8, and run to run, on both bundled workload shapes
// and with every candidate feature on. The recorded counters (renderCounters)
// must match the same way.
func TestRecommendDeterministic(t *testing.T) {
	type workloadCase struct {
		name        string
		db          *catalog.Database
		wl          *workload.Workload
		allFeatures bool
	}
	tpchDB, tpchWL := fixtures()
	salesDB := datagen.NewSales(datagen.SalesConfig{FactRows: 4000, Zipf: 0.8, Seed: 7})
	cases := []workloadCase{
		{name: "tpch", db: tpchDB, wl: workloads.SelectIntensive(tpchWL)},
		{name: "sales", db: salesDB, wl: workloads.MustSales(7)},
		// The update-heavy mix: UPDATE/DELETE statements dominate, so the
		// maintenance-aware costing paths (and their relevance scoping) are
		// what parallel enumeration exercises here.
		{name: "tpch-update", db: tpchDB, wl: workloads.UpdateIntensive(workloads.MustTPCHWithUpdates())},
		// MV and partial candidates: the widest pool, where candidate
		// selection fills the memo concurrently and MV terms compete with
		// per-table plans (the benchmark's sales-wide configuration).
		{name: "sales-all-features", db: salesDB, wl: workloads.SelectIntensive(workloads.MustSales(1)), allFeatures: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions(budget(c.db, 0.3))
			opts.Backtrack = true
			opts.EnableMV, opts.EnablePartial = c.allFeatures, c.allFeatures
			render := func(rec *Recommendation) string { return renderRec(rec) + renderCounters(rec) }
			serial := render(recommendAt(t, c.db, c.wl, opts, 1))
			if two := render(recommendAt(t, c.db, c.wl, opts, 2)); two != serial {
				t.Fatalf("recommendation at Parallelism 2 diverged from serial:\n--- serial ---\n%s--- two ---\n%s", serial, two)
			}
			parallel := render(recommendAt(t, c.db, c.wl, opts, 8))
			if serial != parallel {
				t.Fatalf("parallel recommendation diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
			}
			if again := render(recommendAt(t, c.db, c.wl, opts, 8)); again != parallel {
				t.Fatalf("recommendation diverged run to run:\n--- first ---\n%s--- second ---\n%s", parallel, again)
			}
		})
	}
}

// TestParallelMatchesSerialDensityStaged covers the other enumeration modes
// (the staged baseline, top-k selection) and a tight budget, where
// backtracking and recovery actually fire.
func TestParallelMatchesSerialDensityStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("full advisor runs in -short mode")
	}
	d, w := fixtures()
	sel := workloads.SelectIntensive(w)
	for _, mode := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"staged", func(o *Options) { o.Staged = true }},
		{"tight-backtrack", func(o *Options) { o.Budget = budget(d, 0.08) }},
		{"topk-dta", func(o *Options) { *o = DTAOptions(o.Budget) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := DefaultOptions(budget(d, 0.25))
			mode.mutate(&opts)
			serial := renderRec(recommendAt(t, d, sel, opts, 1))
			parallel := renderRec(recommendAt(t, d, sel, opts, 8))
			if serial != parallel {
				t.Fatalf("%s: parallel diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", mode.name, serial, parallel)
			}
		})
	}
}
