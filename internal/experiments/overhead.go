package experiments

import (
	"fmt"
	"time"

	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/workloads"
)

// Fig11 reproduces "Figure 11: Real Runtime of Index Size Estimation": the
// advisor's runtime split into Other (candidate generation, optimizer calls,
// enumeration) and the size-estimation phase — reported end to end
// (EstimateAll: sample build, plan solve, DAG-parallel execution) with the
// per-kind SampleCF buckets broken out for reference — with deduction on vs
// off. Expected shape: deduction cuts the estimation share from dominating
// to modest while Other stays put. Other + Estimation = Total by
// construction (Timing.Other subtracts the full estimation phase).
func Fig11(sc Scale) *Report {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
	wl := workloads.SelectIntensive(workloads.MustTPCH())
	budget := int64(0.5 * float64(db.TotalHeapBytes()))

	rep := &Report{ID: "fig11", Title: "Advisor runtime split: with vs without deduction (TPC-H, all features)"}
	t := rep.NewTable("", "configuration", "Other", "Estimation", "Sample", "Table-Est", "Partial-Est", "MV-Est", "Total", "est. cost units")

	run := func(name string, useDeduction bool) (time.Duration, float64) {
		opts := core.DefaultOptions(budget)
		opts.EnablePartial = true
		opts.EnableMV = true
		opts.UseDeduction = useDeduction
		rec, err := core.New(db, wl, opts).Recommend()
		if err != nil {
			rep.Notef("%s failed: %v", name, err)
			return 0, 0
		}
		tm := rec.Timing
		estTime := tm.EstimateAll
		t.Add(name,
			wallClock(tm.Other()), wallClock(estTime), wallClock(tm.SampleBuild), wallClock(tm.TableEstimate),
			wallClock(tm.PartialEstim), wallClock(tm.MVEstimate), wallClock(tm.Total),
			fmt.Sprintf("%.0f", tm.EstimationCost))
		return estTime, tm.EstimationCost
	}

	withoutTime, withoutCost := run("DTAc w/o deduction", false)
	withTime, withCost := run("DTAc (deduction)", true)
	if withCost > 0 {
		rep.Notef("estimation cost reduction: %.1fx (paper: ~3x wall clock, 3-10x cost)", withoutCost/withCost)
	}
	if withTime > 0 {
		rep.Notef("estimation wall-clock reduction: %.1fx", clock{float64(withoutTime) / float64(withTime)})
	}
	return rep
}
