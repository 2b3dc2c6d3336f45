package optimizer

import (
	"testing"

	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/sqlparse"
	"cadb/internal/workload"
)

func TestPoolProfileRateFor(t *testing.T) {
	var nilP *PoolProfile
	if got := nilP.RateFor(100); got != 0 {
		t.Fatalf("nil profile rate = %g, want 0", got)
	}
	p := NewPoolProfile(1000)
	if got := p.RateFor(1000); got != ResidentHitRate {
		t.Fatalf("fitting structure rate = %g, want %g", got, ResidentHitRate)
	}
	if got := p.RateFor(1001); got != 0 {
		t.Fatalf("spilling structure rate = %g, want 0", got)
	}
	if got := p.RateFor(0); got != 0 {
		t.Fatalf("empty structure rate = %g, want 0", got)
	}
}

// poolTestStmt is a full-width projection with no sargable predicate: every
// access path is a scan, so costs isolate the page-I/O discount.
func poolTestStmt(t *testing.T) *workload.Statement {
	t.Helper()
	stmt, err := sqlparse.ParseStatement("SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestPoolAwareCostingDiscountsResident pins the discount arithmetic: with a
// profile whose pool holds the heap, the heap scan's page reads and I/O cost
// shrink by exactly (1 - rate), CPU terms are untouched, and clearing the
// profile restores the cold-store numbers bit-for-bit.
func TestPoolAwareCostingDiscountsResident(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Seed: 3})
	cm := NewCostModel(db)
	stmt := poolTestStmt(t)
	cfg := NewConfiguration()

	cold := cm.Plan(stmt, cfg)
	coldReads := cold.EstimatedPageReads()
	if coldReads <= 0 {
		t.Fatal("cold plan reads nothing")
	}

	cm.SetPoolProfile(NewPoolProfile(1 << 40))
	warm := cm.Plan(stmt, cfg)
	wantReads := coldReads * 0.1
	if diff := warm.EstimatedPageReads() - wantReads; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("pool-aware reads = %g, want %g (cold %g x 0.1)", warm.EstimatedPageReads(), wantReads, coldReads)
	}
	if warm.Total >= cold.Total {
		t.Fatalf("pool-aware cost %g not below cold %g", warm.Total, cold.Total)
	}
	// Only I/O was discounted: the cost delta is exactly the discounted pages.
	pages := float64(db.MustTable("lineitem").HeapPages())
	wantDelta := cm.SeqPageIO * pages * 0.9
	if diff := (cold.Total - warm.Total) - wantDelta; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost delta %g, want pure-I/O delta %g", cold.Total-warm.Total, wantDelta)
	}

	cm.SetPoolProfile(nil)
	again := cm.Plan(stmt, cfg)
	if again.Total != cold.Total || again.EstimatedPageReads() != coldReads {
		t.Fatalf("clearing the profile did not restore cold costs: %g/%g vs %g/%g",
			again.Total, again.EstimatedPageReads(), cold.Total, coldReads)
	}
}

// TestPoolAwareCostingShiftsChoice pins the recommendation-shift mechanism:
// two covering variants of the same index where the uncompressed one is
// cheaper under cold costing (fewer CPU cycles, modest page advantage), but
// only the PAGE-compressed one fits the pool — with a profile installed the
// compressed variant wins, which is exactly the residency effect the pool
// sweep measures.
func TestPoolAwareCostingShiftsChoice(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Seed: 3})
	cm := NewCostModel(db)
	stmt := poolTestStmt(t)

	def := func(m compress.Method) *index.Def {
		return &index.Def{
			Table:       "lineitem",
			KeyCols:     []string{"l_orderkey"},
			IncludeCols: []string{"l_partkey", "l_quantity", "l_extendedprice"},
			Method:      m,
		}
	}
	rows := db.MustTable("lineitem").RowCount()
	// Sizes chosen so the PAGE variant's page advantage is smaller than its
	// decompression CPU under cold costing (NONE wins), but only PAGE fits
	// the 160KB pool below.
	plain := &HypoIndex{Def: def(compress.None), Rows: rows, Bytes: 200 << 10, UncompressedBytes: 200 << 10}
	packed := &HypoIndex{Def: def(compress.Page), Rows: rows, Bytes: 150 << 10, UncompressedBytes: 200 << 10}
	cfgPlain := NewConfiguration(plain)
	cfgPacked := NewConfiguration(packed)

	coldPlain := cm.Cost(stmt, cfgPlain)
	coldPacked := cm.Cost(stmt, cfgPacked)
	if coldPlain >= coldPacked {
		t.Fatalf("cold model already prefers PAGE (%g vs %g) — shift scenario needs retuning",
			coldPacked, coldPlain)
	}

	// Pool holds the compressed variant but not the uncompressed one.
	cm.SetPoolProfile(NewPoolProfile(160 << 10))
	warmPlain := cm.Cost(stmt, cfgPlain)
	warmPacked := cm.Cost(stmt, cfgPacked)
	if warmPacked >= warmPlain {
		t.Fatalf("pool-aware model still prefers the spilling variant: PAGE %g vs NONE %g", warmPacked, warmPlain)
	}
	if warmPlain != coldPlain {
		t.Fatalf("spilling variant's cost changed (%g vs %g) though it gets no discount", warmPlain, coldPlain)
	}
}

// TestPoolProfileDeterministic runs the same costing twice under the same
// profile and demands identical numbers — the profile must not introduce any
// order or state dependence.
func TestPoolProfileDeterministic(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Seed: 3})
	stmt := poolTestStmt(t)
	profile := NewPoolProfile(db.MustTable("lineitem").HeapBytes())
	run := func() (float64, float64) {
		cm := NewCostModel(db)
		cm.SetPoolProfile(profile)
		p := cm.Plan(stmt, NewConfiguration())
		return p.Total, p.EstimatedPageReads()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("pool-aware costing not deterministic: %g/%g vs %g/%g", c1, r1, c2, r2)
	}
	// The heap exactly fits, so its scan is discounted at the resident rate.
	pages := float64(db.MustTable("lineitem").HeapPages())
	want := pages * (1 - ResidentHitRate)
	if diff := r1 - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("resident-heap reads = %g, want %g", r1, want)
	}
}
