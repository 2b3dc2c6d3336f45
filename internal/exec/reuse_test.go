package exec

import (
	"runtime"
	"testing"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// The read path lends rows instead of allocating them: a cursor's batch is
// valid until the next one, the joiner's wide row until the next widen. These
// tests hold the ways that can go wrong — a consumer keeping a lent row, a
// failed statement keeping its stream, a pruned pipeline resolving a name the
// oracle would not, per-row allocation creeping back.

// scribble overwrites a lent row with values no query can produce.
func scribble(r storage.Row) {
	for i := range r {
		r[i] = storage.Value{Kind: storage.KindString, Str: "\x00lent row kept past its lifetime"}
	}
}

// TestPoisonedReuseMatchesOracle reruns the differential sweeps with every
// lent row scribbled the moment its lender may reuse it. A consumer that
// kept a reference instead of a copy returns garbage here, deterministically,
// rather than whenever a buffer happens to be recycled.
func TestPoisonedReuseMatchesOracle(t *testing.T) {
	poison = scribble
	t.Cleanup(func() { poison = nil })
	t.Run("TPCH", TestStoreMatchesOracleTPCH)
	t.Run("Sales", TestStoreMatchesOracleSales)
	t.Run("DiskTPCH", TestDiskStoreMatchesOracleTPCH)
	t.Run("Randomized", TestStreamingMatchesOracleRandomized)
}

// TestFailedStatementReleasesStream runs statements that fail after planning
// on a disk-backed store with readahead on: none may leave prefetch workers
// parked or frames pinned.
func TestFailedStatementReleasesStream(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 4000, Seed: 3})
	st, err := NewStore(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetDiskBacked(t.TempDir(), bufferpool.New(64<<10))
	st.SetPrefetch(32, 2)
	good := q(t, "SELECT SUM(l_extendedprice) FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey")
	if _, err := st.RunQuery(good); err != nil { // builds and spills both heaps
		t.Fatal(err)
	}
	bad := []*workload.Query{
		{Tables: good.Tables, Joins: good.Joins, Aggs: good.Aggs,
			Preds: []workload.Predicate{{Col: "no_such_column", Op: workload.OpEq, Lo: storage.IntVal(1)}}},
		{Tables: good.Tables, Joins: good.Joins, Aggs: good.Aggs, GroupBy: []workload.ColRef{{Col: "no_such_column"}}},
		{Tables: good.Tables, Joins: good.Joins, Select: []workload.ColRef{{Col: "no_such_column"}}},
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 21; i++ {
		if _, err := st.RunQuery(bad[i%len(bad)]); err == nil {
			t.Fatalf("statement %d: a reference to an unknown column succeeded", i)
		}
	}
	// A worker is released before it has quite exited: give the scheduler a
	// moment, but a worker still there after it is parked for good.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the failed statements, %d before", n, baseline)
	}
	if n := st.Pool().Stats().PinnedFrames; n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// TestPrunedJoinRejectsWhatOracleRejects: the store reads only the columns a
// statement uses, but resolves names against every column of every joined
// table, as the oracle does. So an ambiguous or unknown reference fails with
// the oracle's error, and a reference only suffix matching can resolve — one
// no per-table attribution would have fetched — returns the oracle's rows.
func TestPrunedJoinRejectsWhatOracleRejects(t *testing.T) {
	db := testDB()
	st, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := q(t, "SELECT orders.o_orderdate FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey")
	with := func(edit func(*workload.Query)) *workload.Query {
		c := *base
		edit(&c)
		return &c
	}
	cases := []struct {
		name   string
		q      *workload.Query
		reject bool
	}{
		// l_comment and o_comment both end in _comment.
		{"ambiguous select", with(func(q *workload.Query) { q.Select = []workload.ColRef{{Col: "comment"}} }), true},
		{"ambiguous predicate", with(func(q *workload.Query) {
			q.Preds = []workload.Predicate{{Col: "comment", Op: workload.OpEq, Lo: storage.StringVal("x")}}
		}), true},
		{"ambiguous group-by", with(func(q *workload.Query) {
			q.Select, q.GroupBy = nil, []workload.ColRef{{Col: "comment"}}
		}), true},
		{"unknown select", with(func(q *workload.Query) { q.Select = []workload.ColRef{{Col: "ghost"}} }), true},
		{"unknown predicate", with(func(q *workload.Query) {
			q.Preds = []workload.Predicate{{Table: "orders", Col: "ghost", Op: workload.OpEq, Lo: storage.IntVal(1)}}
		}), true},
		{"unknown aggregate", with(func(q *workload.Query) {
			q.Select, q.Aggs = nil, []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Col: "ghost"}}}
		}), true},
		{"suffix-resolved select", with(func(q *workload.Query) {
			q.Select = []workload.ColRef{{Col: "quantity"}, {Table: "x", Col: "o_totalprice"}}
		}), false},
		{"suffix-resolved predicate and aggregate", with(func(q *workload.Query) {
			q.Select = nil
			q.Preds = []workload.Predicate{{Col: "quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}
			q.Aggs = []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Col: "totalprice"}}}
		}), false},
	}
	for _, c := range cases {
		want, werr := Run(db, c.q)
		got, gerr := st.RunQuery(c.q)
		if (werr != nil) != c.reject {
			t.Fatalf("%s: oracle error %v, want rejection=%v", c.name, werr, c.reject)
		}
		if c.reject {
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s: store failed with %v, oracle with %v", c.name, gerr, werr)
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("%s: store: %v", c.name, gerr)
		}
		assertResultsIdentical(t, c.name, got, want)
	}
}

// TestPassAllocBudget is the allocation ratchet of the read path: a
// statement allocates for its pages, its dimension tables and its result,
// not for its rows. Both statements here drive every lineitem row through
// the pipeline; the budget is a quarter of an allocation per row, where one
// allocation per row per join step (or per ordered row) was the cost before
// rows were lent.
func TestPassAllocBudget(t *testing.T) {
	const factRows = 6000 // testDB's lineitem
	const perRow = 0.25
	db := testDB()
	st, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice", "l_discount"}, Method: compress.Row},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, sql, path string
	}{
		{"two-join aggregate",
			// Q8's shape — two joins under a lineitem scan, a filter on one
			// dimension, grouping on the other — with few groups, so that what
			// is counted is the rows' cost and not the result's.
			`SELECT part.p_size, AVG(lineitem.l_extendedprice) FROM lineitem
			 JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
			 JOIN part ON lineitem.l_partkey = part.p_partkey
			 WHERE orders.o_orderdate >= DATE 1 GROUP BY part.p_size`, "heap-scan lineitem"},
		{"covering seek",
			`SELECT SUM(l_extendedprice), SUM(l_discount) FROM lineitem WHERE l_shipdate >= DATE 1`,
			"index-seek lineitem"},
	}
	for _, c := range cases {
		query := q(t, c.sql)
		res, err := st.RunQuery(query) // builds the segments outside the count
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Paths) == 0 || len(res.Paths[0]) < len(c.path) || res.Paths[0][:len(c.path)] != c.path {
			t.Fatalf("%s: access path %v, want %s", c.name, res.Paths, c.path)
		}
		if res.IO.TuplesDecoded < factRows {
			t.Fatalf("%s: decoded %d tuples, the budget assumes all %d lineitem rows", c.name, res.IO.TuplesDecoded, factRows)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := st.RunQuery(query); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > perRow*factRows {
			t.Fatalf("%s: %.0f allocations for %d driving rows (%.3f per row), budget %.2f per row",
				c.name, allocs, factRows, allocs/factRows, perRow)
		}
		t.Logf("%s: %.0f allocations, %.4f per driving row", c.name, allocs, allocs/factRows)
	}
}
