package sizeest

import (
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/estimator"
	"cadb/internal/index"
	"cadb/internal/sampling"
	"cadb/internal/sizing"
)

var (
	dbOnce sync.Once
	db     *catalog.Database
)

func testDB() *catalog.Database {
	dbOnce.Do(func() {
		db = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 31})
	})
	return db
}

func liDef(m compress.Method, cols ...string) *index.Def {
	return (&index.Def{Table: "lineitem", KeyCols: cols}).WithMethod(m)
}

// testTargets is a realistic target family: composite structures × both
// methods, with column overlap so the plan mixes SAMPLED and DEDUCED nodes.
func testTargets() []*index.Def {
	structures := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode"}},
		{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_shipmode", "l_quantity"}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}},
		{Table: "orders", KeyCols: []string{"o_orderdate", "o_orderpriority"}},
	}
	var targets []*index.Def
	for _, s := range structures {
		for _, m := range []compress.Method{compress.Row, compress.Page} {
			targets = append(targets, s.WithMethod(m))
		}
	}
	return targets
}

func sameEstimate(a, b *estimator.Estimate) bool {
	return a.Rows == b.Rows && a.Bytes == b.Bytes && a.UncompressedBytes == b.UncompressedBytes &&
		a.CF == b.CF && a.Source == b.Source && a.Mean == b.Mean && a.Std == b.Std && a.Cost == b.Cost
}

// TestOracleMatchesSerialExecute is the layer's differential invariant: the
// batched, DAG-parallel oracle must produce estimates byte-identical to the
// serial sizing.Execute path over the same shared samples, at any worker
// count.
func TestOracleMatchesSerialExecute(t *testing.T) {
	const seed = 5
	targets := testTargets()

	// Serial baseline: same sweep, executed node by node in plan order.
	store := sampling.NewStore(testDB(), seed)
	plan, est := sizing.SweepShared(store, targets, nil, 0.5, 0.9)
	want, err := sizing.Execute(est, plan)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		o := New(testDB(), Config{Seed: seed, UseDeduction: true, Workers: workers})
		got, err := o.Prepare(targets)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d estimates, serial produced %d", workers, len(got), len(want))
		}
		for id, w := range want {
			g := got[id]
			if g == nil {
				t.Fatalf("workers=%d: missing estimate for %s", workers, id)
			}
			if !sameEstimate(g, w) {
				t.Fatalf("workers=%d: estimate for %s diverged:\n  oracle %+v\n  serial %+v", workers, id, g, w)
			}
		}
		if f := o.Plan().F; f != plan.F {
			t.Fatalf("workers=%d: chose f=%v, serial sweep chose %v", workers, f, plan.F)
		}
	}
}

// TestOracleBatchesSampleCFVariants: the ROW and PAGE variants of one
// structure share a single materialized sample index, so the per-structure
// materialization count is half the SampleCF call count when both variants
// are sampled.
func TestOracleBatchesSampleCFVariants(t *testing.T) {
	targets := []*index.Def{
		liDef(compress.Row, "l_shipdate", "l_quantity"),
		liDef(compress.Page, "l_shipdate", "l_quantity"),
	}
	// A tight constraint forces both variants through SampleCF.
	o := New(testDB(), Config{Seed: 3, ErrTolerance: 0.05, Confidence: 0.99, UseDeduction: true, Workers: 4})
	got, err := o.Prepare(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range targets {
		if got[d.ID()] == nil {
			t.Fatalf("missing estimate for %s", d)
		}
	}
	// Both calls ran (counted individually)…
	if calls := o.Accounting().SampleCFCalls; calls < 2 {
		t.Fatalf("expected both variants sampled, got %d SampleCF calls", calls)
	}
	// …and produced consistent shapes off the shared materialization.
	r, p := got[targets[0].ID()], got[targets[1].ID()]
	if r.Rows != p.Rows || r.UncompressedBytes != p.UncompressedBytes {
		t.Fatalf("variants of one structure must share rows/uncompressed size: %+v vs %+v", r, p)
	}
}

// TestAdmitDeducesMergedIndex: a merged index whose column set matches an
// already-estimated target must be admitted through the deduction graph —
// no new SampleCF — matching the incremental-admission goal.
func TestAdmitDeducesMergedIndex(t *testing.T) {
	targets := []*index.Def{
		liDef(compress.Row, "l_shipdate"),
		liDef(compress.Row, "l_shipmode"),
		liDef(compress.Row, "l_quantity"),
		liDef(compress.Row, "l_shipdate", "l_shipmode", "l_quantity"),
	}
	o := New(testDB(), Config{Seed: 9, UseDeduction: true, Workers: 4})
	if _, err := o.Prepare(targets); err != nil {
		t.Fatal(err)
	}
	calls0 := o.Accounting().SampleCFCalls

	// The shape mergeCandidates produces: leading key + merged includes.
	merged := (&index.Def{
		Table:       "lineitem",
		KeyCols:     []string{"l_shipdate"},
		IncludeCols: []string{"l_quantity", "l_shipmode"},
	}).WithMethod(compress.Row)
	e, err := o.Admit(merged)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != estimator.SourceColSet && e.Source != estimator.SourceColExt {
		t.Fatalf("merged index should be deduced, got source %s", e.Source)
	}
	acct := o.Accounting()
	if acct.SampleCFCalls != calls0 {
		t.Fatalf("admission re-sampled: %d -> %d SampleCF calls", calls0, acct.SampleCFCalls)
	}
	if acct.AdmittedDeduced != 1 || acct.AdmittedSampled != 0 {
		t.Fatalf("admission counters: deduced=%d sampled=%d, want 1/0", acct.AdmittedDeduced, acct.AdmittedSampled)
	}

	// Re-admission is a cache hit, not a second admission.
	if _, err := o.Admit(merged); err != nil {
		t.Fatal(err)
	}
	if a := o.Accounting(); a.AdmittedDeduced != 1 {
		t.Fatalf("re-admission must hit the cache, counters now %+v", a)
	}
}

// TestAdmitFallsBackToSampleCF: a late definition with no usable parent or
// child in the graph must be sampled — and join the graph so still-later
// arrivals can deduce from it.
func TestAdmitFallsBackToSampleCF(t *testing.T) {
	targets := []*index.Def{liDef(compress.Row, "l_shipdate")}
	o := New(testDB(), Config{Seed: 11, UseDeduction: true, Workers: 2})
	if _, err := o.Prepare(targets); err != nil {
		t.Fatal(err)
	}
	stranger := (&index.Def{Table: "orders", KeyCols: []string{"o_orderdate", "o_orderpriority"}}).WithMethod(compress.Row)
	e, err := o.Admit(stranger)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != estimator.SourceSampled {
		t.Fatalf("no parent exists, expected samplecf, got %s", e.Source)
	}
	if a := o.Accounting(); a.AdmittedSampled != 1 {
		t.Fatalf("admission counters: %+v, want one sampled", a)
	}
	if o.Plan().ByID[stranger.ID()] == nil {
		t.Fatal("admitted node must join the live graph")
	}

	// A permutation of the sampled stranger now deduces from it (ColSet).
	perm := (&index.Def{Table: "orders", KeyCols: []string{"o_orderpriority", "o_orderdate"}}).WithMethod(compress.Row)
	e2, err := o.Admit(perm)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Source != estimator.SourceColSet {
		t.Fatalf("permutation of an admitted node should deduce, got %s", e2.Source)
	}
}
