package sampling

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

var (
	dbOnce sync.Once
	db     *catalog.Database
)

func testDB() *catalog.Database {
	dbOnce.Do(func() {
		db = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 10000, Seed: 21})
	})
	return db
}

func TestSampleSizeAndReuse(t *testing.T) {
	m := NewManager(testDB(), 0.05, 1)
	s, err := m.Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.05 * 10000)
	if len(s.Rows) != want {
		t.Fatalf("sample rows=%d want %d", len(s.Rows), want)
	}
	s2, err := m.Sample("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Fatal("sample must be amortized (same object on reuse)")
	}
	if m.Recorder().Timing().SampleBuild == 0 {
		t.Fatal("sample build time not recorded")
	}
}

func TestSampleUniformity(t *testing.T) {
	m := NewManager(testDB(), 0.2, 2)
	s, err := m.Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// The mean of l_quantity (uniform 1..50) in the sample should be close
	// to the population mean (~25.5).
	qi := s.Table.Schema.ColIndex("l_quantity")
	var sum float64
	for _, r := range s.Rows {
		sum += float64(r[qi].Int)
	}
	mean := sum / float64(len(s.Rows))
	if mean < 23 || mean > 28 {
		t.Fatalf("sample mean quantity=%v want ~25.5", mean)
	}
}

func TestSampleUnknownTable(t *testing.T) {
	m := NewManager(testDB(), 0.1, 3)
	if _, err := m.Sample("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestInvalidFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for f=0")
		}
	}()
	NewManager(testDB(), 0, 1)
}

// TestFilteredSample: a partial index's sample is the base sample through
// the partial index's own filter (index.FilterRows, Appendix B.1).
func TestFilteredSample(t *testing.T) {
	m := NewManager(testDB(), 0.2, 4)
	where := []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}
	base, err := m.Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := index.FilterRows(base.Table.Schema, base.Rows, where)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) >= len(base.Rows) {
		t.Fatalf("filtered sample size %d of %d", len(rows), len(base.Rows))
	}
	// Roughly 20% of quantities are <= 10.
	frac := float64(len(rows)) / float64(len(base.Rows))
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("filtered fraction=%v want ~0.2", frac)
	}
}

func TestJoinSynopsisPreservesFactRows(t *testing.T) {
	m := NewManager(testDB(), 0.1, 5)
	joins := []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}}
	syn, err := m.Synopsis("lineitem", joins)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := m.Sample("lineitem")
	// The whole point of join synopses: every sampled fact row finds its
	// dimension match (naively joining two independent samples would lose
	// almost everything).
	if len(syn.Rows) != len(fs.Rows) {
		t.Fatalf("synopsis rows=%d, fact sample rows=%d", len(syn.Rows), len(fs.Rows))
	}
	if !syn.Schema.Has("supplier_s_nationkey") {
		t.Fatal("synopsis missing dimension columns")
	}
	// Cached on second request.
	syn2, _ := m.Synopsis("lineitem", joins)
	if syn != syn2 {
		t.Fatal("synopsis must be cached")
	}
}

func TestMVSampleAggregated(t *testing.T) {
	m := NewManager(testDB(), 0.1, 6)
	mv := &index.MVDef{
		Name:    "mv_mode",
		Fact:    "lineitem",
		GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	ms, err := m.MVSampleFor(mv)
	if err != nil {
		t.Fatal(err)
	}
	// 7 ship modes; a 10% sample sees all of them many times over.
	if ms.SampleGroups != 7 {
		t.Fatalf("sample groups=%d want 7", ms.SampleGroups)
	}
	if ms.EstimatedRows != 7 {
		t.Fatalf("AE estimate=%d want 7 (saturated groups)", ms.EstimatedRows)
	}
	// The Multiply baseline must wildly overestimate here.
	mult := EstimateMVRowsMultiply(ms.SampleGroups, ms.Fraction)
	if mult < 50 {
		t.Fatalf("Multiply estimate=%d should be ~70", mult)
	}
}

func TestMVSampleCorrelatedColumns(t *testing.T) {
	m := NewManager(testDB(), 0.15, 7)
	mv := &index.MVDef{
		Name: "mv_rf_ls",
		Fact: "lineitem",
		GroupBy: []workload.ColRef{
			{Table: "lineitem", Col: "l_returnflag"},
			{Table: "lineitem", Col: "l_linestatus"},
		},
		Aggs: []workload.Aggregate{{Func: workload.AggCount}},
	}
	ms, err := m.MVSampleFor(mv)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := testDB().MustTable("lineitem").DistinctPrefix([]string{"l_returnflag", "l_linestatus"})
	if err != nil {
		t.Fatal(err)
	}
	aeErr := relErr(ms.EstimatedRows, truth)
	// Optimizer baseline assumes independence: |rf| * |ls| = 6 > truth (4).
	opt := EstimateMVRowsOptimizer(testDB(), mv)
	optErr := relErr(opt, truth)
	if aeErr > 0.25 {
		t.Fatalf("AE err=%v truth=%d est=%d", aeErr, truth, ms.EstimatedRows)
	}
	if optErr <= aeErr {
		t.Fatalf("Optimizer (independence) should err more: opt=%v ae=%v", optErr, aeErr)
	}
}

func relErr(est, truth int64) float64 {
	if truth == 0 {
		return 0
	}
	d := float64(est-truth) / float64(truth)
	if d < 0 {
		return -d
	}
	return d
}

func TestMVSampleWithJoin(t *testing.T) {
	m := NewManager(testDB(), 0.1, 8)
	mv := &index.MVDef{
		Name:    "mv_nation",
		Fact:    "lineitem",
		Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}},
		GroupBy: []workload.ColRef{{Table: "supplier", Col: "s_nationkey"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	ms, err := m.MVSampleFor(mv)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the true materialized MV cardinality.
	_, full, err := index.MaterializeMV(testDB(), mv)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(ms.EstimatedRows, int64(len(full))) > 0.2 {
		t.Fatalf("nation-level MV estimate=%d want ~%d", ms.EstimatedRows, len(full))
	}
}

func TestMVSampleJoinProjection(t *testing.T) {
	m := NewManager(testDB(), 0.1, 9)
	mv := &index.MVDef{
		Name:  "mv_proj",
		Fact:  "lineitem",
		Joins: []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}},
	}
	ms, err := m.MVSampleFor(mv)
	if err != nil {
		t.Fatal(err)
	}
	li := testDB().MustTable("lineitem").RowCount()
	if relErr(ms.EstimatedRows, li) > 0.05 {
		t.Fatalf("projection MV estimate=%d want ~%d", ms.EstimatedRows, li)
	}
}

func TestAdaptiveEstimatorEdgeCases(t *testing.T) {
	if AdaptiveEstimator(nil, 0, 0, 100) != 0 {
		t.Fatal("empty sample must estimate 0")
	}
	// Sample is the full data.
	if got := AdaptiveEstimator(map[int64]int64{1: 10}, 10, 100, 100); got != 10 {
		t.Fatalf("full sample: got %d want 10", got)
	}
	// All groups seen >= 2 times: estimate d.
	if got := AdaptiveEstimator(map[int64]int64{5: 20}, 20, 100, 10000); got != 20 {
		t.Fatalf("saturated: got %d want 20", got)
	}
	// All singletons: must scale up but stay within [d, n].
	got := AdaptiveEstimator(map[int64]int64{1: 50}, 50, 50, 5000)
	if got < 50 || got > 5000 {
		t.Fatalf("singleton scale-up out of bounds: %d", got)
	}
	if got < 400 {
		t.Fatalf("all-singleton sample should scale up aggressively: %d", got)
	}
}

func TestAdaptiveEstimatorBeatsBaselinesOnUniform(t *testing.T) {
	// Synthetic: 1000 groups, 100k tuples, 5% sample -> every group seen ~5
	// times. AE should be nearly exact; Multiply overshoots by ~20x.
	freq := map[int64]int64{4: 300, 5: 400, 6: 300}
	d, r, n := int64(1000), int64(5000), int64(100000)
	ae := AdaptiveEstimator(freq, d, r, n)
	if relErr(ae, 1000) > 0.05 {
		t.Fatalf("AE=%d want ~1000", ae)
	}
	mult := EstimateMVRowsMultiply(d, 0.05)
	if mult < 15000 {
		t.Fatalf("Multiply=%d should be ~20000", mult)
	}
}

// TestStorePrefixSamples: managers from one store draw nested samples — the
// smaller-f sample is exactly a prefix of the larger-f sample, the draw is
// deterministic across stores with the same seed, and the prefix is still a
// uniform sample of the table.
func TestStorePrefixSamples(t *testing.T) {
	store := NewStore(testDB(), 7)
	small, err := store.Manager(0.02).Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	large, err := store.Manager(0.2).Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Rows) != 200 || len(large.Rows) != 2000 {
		t.Fatalf("sample sizes %d/%d, want 200/2000", len(small.Rows), len(large.Rows))
	}
	for i := range small.Rows {
		if &small.Rows[i][0] != &large.Rows[i][0] {
			t.Fatalf("row %d: smaller-f sample is not a prefix of the larger-f sample", i)
		}
	}
	// One permutation build served both fractions: both samples are
	// prefixes of the one permutation slice the store keeps.
	if &small.Rows[0] != &large.Rows[0] || len(store.tables) != 1 {
		t.Fatal("each fraction built its own permutation, want one shared build")
	}

	// Determinism: a fresh store with the same seed draws the same prefix.
	again, err := NewStore(testDB(), 7).Manager(0.02).Sample("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Rows {
		for j := range small.Rows[i] {
			if small.Rows[i][j] != again.Rows[i][j] {
				t.Fatalf("row %d differs across same-seed stores", i)
			}
		}
	}

	// Uniformity of the shared permutation's prefix (cf. TestSampleUniformity).
	qi := large.Table.Schema.ColIndex("l_quantity")
	var sum float64
	for _, r := range large.Rows {
		sum += float64(r[qi].Int)
	}
	if mean := sum / float64(len(large.Rows)); mean < 23 || mean > 28 {
		t.Fatalf("prefix sample mean quantity=%v want ~25.5", mean)
	}
}

// TestStoreUnknownTable: store-backed managers surface unknown tables the
// same way plain managers do.
func TestStoreUnknownTable(t *testing.T) {
	if _, err := NewStore(testDB(), 1).Manager(0.1).Sample("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestPermutationMatchesSort: the bucket pass orders rows exactly as a plain
// sort by (priority, row) does, at sizes from empty to a loop-benchmark
// table, over three seeds.
func TestPermutationMatchesSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 40000} {
		for _, seed := range []int64{1, 7, -3} {
			base := uint64(seed) ^ uint64(hashString("lineitem"))
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			slices.SortFunc(want, func(a, b int) int {
				if c := cmp.Compare(splitmix64(base+uint64(a)), splitmix64(base+uint64(b))); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			if got := permutation(base, n); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: bucket-pass permutation differs from the (priority, row) sort", n, seed)
			}
		}
	}
}
