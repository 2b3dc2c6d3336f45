// Size estimation walkthrough: estimate compressed index sizes with
// SampleCF and deductions, compare against ground truth, and let the
// graph-search planner (Section 5 of the paper) choose the cheapest
// estimation strategy under an accuracy constraint.
package main

import (
	"fmt"
	"log"
	"time"

	"cadb"
)

func main() {
	db := cadb.NewTPCH(cadb.TPCHConfig{LineitemRows: 15000, Seed: 7})

	// Three compressed indexes whose sizes the design tool would need.
	targets := []*cadb.IndexDef{
		(&cadb.IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate"}}).
			WithMethod(cadb.RowCompression),
		(&cadb.IndexDef{Table: "lineitem", KeyCols: []string{"l_shipmode"}}).
			WithMethod(cadb.RowCompression),
		(&cadb.IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}}).
			WithMethod(cadb.RowCompression),
	}

	// The size oracle plans which indexes get SampleCF and which are
	// deduced — subject to "error <= 50% with >= 90% confidence" (its
	// default), minimizing sampling cost over the f-grid — then executes the
	// plan: the deduction DAG level-parallel, SampleCF batched per structure,
	// one shared sample store for every f-grid point (each smaller-f sample
	// is a prefix of the largest-f sample).
	oracle := cadb.NewSizeOracle(db, cadb.SizeOracleConfig{Seed: 1, UseDeduction: true})
	estimates, err := oracle.Prepare(targets)
	if err != nil {
		log.Fatal(err)
	}
	plan := oracle.Plan()
	fmt.Printf("estimation plan (chosen sampling fraction f=%.1f%%):\n%s\n",
		100*plan.F, plan.Describe())

	fmt.Println("estimate vs ground truth:")
	for _, d := range targets {
		e := estimates[d.ID()]
		truth, err := cadb.BuildIndex(db, d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-60s est %7d B  true %7d B  err %+5.1f%%  via %s\n",
			d, e.Bytes, truth.Bytes,
			100*(float64(e.Bytes)/float64(truth.Bytes)-1), e.Source)
	}

	// The point of deduction: the composite index's size came for free.
	fmt.Printf("\ntotal estimation cost: %.0f sample-index pages "+
		"(SampleCF on every index would cost more)\n", plan.TotalCost)

	// Every phase beneath the oracle records into one recorder; its Timing
	// is the same snapshot an advisor run returns as Recommendation.Timing.
	t := oracle.Recorder().Timing()
	fmt.Printf("\noracle: %d SampleCF calls, sample-build %v, plan-solve %v, plan-execute %v\n",
		t.SampleCFCalls, t.SampleBuild.Round(time.Microsecond),
		t.PlanSolve.Round(time.Microsecond), t.PlanExecute.Round(time.Microsecond))

	// Indexes invented later — merged candidates, compressed variants — are
	// admitted into the live graph instead of always being re-sampled.
	// A "merged" index arriving after the plan was solved: same column set
	// as the composite target, so the live graph deduces it for free.
	merged := (&cadb.IndexDef{
		Table:       "lineitem",
		KeyCols:     []string{"l_shipmode"},
		IncludeCols: []string{"l_shipdate"},
	}).WithMethod(cadb.RowCompression)
	late, err := oracle.Admit(merged)
	if err != nil {
		log.Fatal(err)
	}
	t = oracle.Recorder().Timing()
	fmt.Printf("late admission %s: %d B via %s (admissions: %d deduced / %d sampled)\n",
		merged, late.Bytes, late.Source, t.AdmittedDeduced, t.AdmittedSampled)
}
