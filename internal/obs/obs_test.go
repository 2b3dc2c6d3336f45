package obs

import (
	"testing"
	"time"

	"cadb/internal/par"
)

// TestNilRecorderIsNoOp: a nil recorder takes Adds without calling them and
// snapshots as the zero Timing.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Add(func(*Timing) { t.Fatal("nil recorder must not call f") })
	if got := r.Timing(); got != (Timing{}) {
		t.Fatalf("nil recorder snapshot %+v, want zero", got)
	}
}

// TestRecorderSumsParallelSlots: Adds from concurrent par.For slots sum
// exactly, whatever order the slots run in.
func TestRecorderSumsParallelSlots(t *testing.T) {
	const n = 1000
	var r Recorder
	par.For(8, n, func(i int) {
		r.Add(func(t *Timing) {
			t.SampleCFCalls++
			t.EstimationCost += float64(i)
			t.PlanSolve += time.Duration(i)
		})
	})
	got := r.Timing()
	if got.SampleCFCalls != n || got.EstimationCost != n*(n-1)/2 || got.PlanSolve != n*(n-1)/2 {
		t.Fatalf("calls=%d cost=%v solve=%v, want %d, %d, %d",
			got.SampleCFCalls, got.EstimationCost, got.PlanSolve, n, n*(n-1)/2, n*(n-1)/2)
	}
}
