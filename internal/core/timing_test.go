package core

import (
	"testing"
	"time"
)

// TestTimingOtherSubtractsFullEstimationPhase pins the Figure 11 "Other"
// split: the estimation phase is EstimateAll, which already contains the
// sample build, plan solve, plan execute and SampleCF sub-phases. The
// regression this guards: subtracting only SampleBuild+SampleCF buckets
// omitted PlanSolve/PlanExecute overhead, over-reporting "Other".
func TestTimingOtherSubtractsFullEstimationPhase(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// Other is simply Total - EstimateAll, regardless of how the sub-phases
	// break down.
	tm := Timing{
		Total:         ms(100),
		EstimateAll:   ms(40),
		SampleBuild:   ms(10),
		PlanSolve:     ms(15),
		PlanExecute:   ms(12),
		TableEstimate: ms(9), // inside PlanExecute; must not double-subtract
		PartialEstim:  ms(2),
		MVEstimate:    ms(1),
	}
	if got, want := tm.Other(), ms(60); got != want {
		t.Fatalf("Other()=%v want %v", got, want)
	}

	// Never negative.
	tm3 := Timing{Total: ms(5), EstimateAll: ms(9)}
	if got := tm3.Other(); got != 0 {
		t.Fatalf("Other() must clamp at zero, got %v", got)
	}
}

// TestTimingOtherFromRecommend checks the split on a real advisor run: the
// phases the advisor reports must fit inside the total, and Other must be
// the complement of the estimation phase.
func TestTimingOtherFromRecommend(t *testing.T) {
	d, w := fixtures()
	rec, err := New(d, w, DefaultOptions(budget(d, 0.25))).Recommend()
	if err != nil {
		t.Fatal(err)
	}
	tm := rec.Timing
	if tm.EstimateAll <= 0 {
		t.Fatal("EstimateAll must be populated by Recommend")
	}
	if got, want := tm.Other(), tm.Total-tm.EstimateAll; got != want {
		t.Fatalf("Other()=%v want Total-EstimateAll=%v", got, want)
	}
	if tm.Other() <= 0 || tm.Other() > tm.Total {
		t.Fatalf("implausible Other()=%v of Total=%v", tm.Other(), tm.Total)
	}
	// The statistics phase runs first and belongs to Other.
	if tm.StatsColumns == 0 || tm.Stats > tm.Other() {
		t.Fatalf("statistics phase: %d columns in %v, of Other()=%v", tm.StatsColumns, tm.Stats, tm.Other())
	}
}
