// Package obs is the tune path's one recorder. Every layer of an advisor run
// (sample store, estimators, size oracle, enumeration) adds its phase times
// and counters into one Timing through one Recorder, and the recommendation
// carries the recorder's snapshot. Stdlib only, so any layer can import it.
package obs

import (
	"sync"
	"time"
)

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
// end-to-end wall time; sample build, plan solve, plan execution and the
// per-kind SampleCF buckets all happen inside it.
func (t Timing) Other() time.Duration { return max(0, t.Total-t.EstimateAll) }

// Recorder accumulates one run's Timing. It is safe for concurrent use, and
// a nil *Recorder is a no-op that snapshots as the zero Timing.
type Recorder struct {
	mu sync.Mutex
	t  Timing
}

// Add applies f to the recorded Timing under the recorder's lock. Every
// layer records through it: f adds a phase time or bumps a counter, and does
// nothing else, since it runs with the lock held.
func (r *Recorder) Add(f func(*Timing)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f(&r.t)
	r.mu.Unlock()
}

// Timing returns a snapshot of what has been recorded so far.
func (r *Recorder) Timing() Timing {
	if r == nil {
		return Timing{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t
}
