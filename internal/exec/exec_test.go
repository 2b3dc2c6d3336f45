package exec

import (
	"math"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/sqlparse"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

var (
	dbOnce sync.Once
	db     *catalog.Database
)

func testDB() *catalog.Database {
	dbOnce.Do(func() {
		db = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 77})
	})
	return db
}

func q(t *testing.T, sql string) *workload.Query {
	t.Helper()
	s, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s.Query
}

func TestRunCountStar(t *testing.T) {
	res, err := Run(testDB(), q(t, "SELECT COUNT(*) FROM lineitem"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if got := res.Rows[0][0].Int; got != 6000 {
		t.Fatalf("COUNT(*)=%d want 6000", got)
	}
}

// TestScalarAggregateOverNoRows: an aggregate without GROUP BY returns
// exactly one row even when no row qualifies — COUNT 0, SUM NULL — from the
// oracle and from the store, over the heap and over a seekable index; with a
// GROUP BY, no input still makes no group and no row.
func TestScalarAggregateOverNoRows(t *testing.T) {
	const where = " FROM lineitem WHERE l_quantity > 60"
	scalar := q(t, "SELECT COUNT(*), SUM(l_quantity)"+where)
	grouped := q(t, "SELECT l_shipmode, COUNT(*)"+where+" GROUP BY l_shipmode")
	db := testDB()
	results := map[string]func(*workload.Query) (*Result, error){
		"oracle": func(q *workload.Query) (*Result, error) { return Run(db, q) },
	}
	for name, defs := range map[string][]*index.Def{"heap store": nil, "indexed store": tpchDesign()} {
		st, err := NewStore(db, defs)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		results[name] = st.RunQuery
	}
	for name, run := range results {
		res, err := run(scalar)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			t.Fatalf("%s: scalar aggregate over no rows returned %v, want [0 NULL]", name, res.Rows)
		}
		if c, s := res.Rows[0][0], res.Rows[0][1]; c.Null || c.Kind != storage.KindInt || c.Int != 0 || !s.Null || s.Kind != storage.KindFloat {
			t.Errorf("%s: COUNT(*), SUM(l_quantity) over no rows = %v, %v; want 0, NULL", name, c, s)
		}
		if res, err = run(grouped); err != nil || len(res.Rows) != 0 {
			t.Errorf("%s: grouped aggregate over no rows returned %d rows (%v), want none", name, len(res.Rows), err)
		}
	}
}

func TestRunFilteredCountMatchesCountMatching(t *testing.T) {
	query := q(t, "SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 10 AND l_shipmode = 'AIR'")
	res, err := Run(testDB(), query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CountMatching(testDB(), "lineitem", query.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != want {
		t.Fatalf("COUNT=%d want %d", got, want)
	}
	if want == 0 || want == 6000 {
		t.Fatalf("degenerate predicate (matched %d)", want)
	}
}

func TestRunGroupBySums(t *testing.T) {
	res, err := Run(testDB(), q(t, "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 3 {
		t.Fatalf("groups=%d", len(res.Rows))
	}
	// Counts must total the table, sums must total the quantity sum.
	var cnt int64
	var qty float64
	for _, r := range res.Rows {
		qty += r[1].Float
		cnt += r[2].Int
	}
	if cnt != 6000 {
		t.Fatalf("counts total %d", cnt)
	}
	li := testDB().MustTable("lineitem")
	qi := li.Schema.ColIndex("l_quantity")
	var want float64
	for _, r := range li.Rows {
		want += float64(r[qi].Int)
	}
	if math.Abs(qty-want) > 1e-6 {
		t.Fatalf("sum=%v want %v", qty, want)
	}
}

func TestRunJoinAggregate(t *testing.T) {
	res, err := Run(testDB(), q(t, `SELECT supplier.s_nationkey, SUM(lineitem.l_extendedprice)
		FROM lineitem JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
		GROUP BY supplier.s_nationkey`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 25 {
		t.Fatalf("nation groups=%d", len(res.Rows))
	}
	// Total revenue must match the ungrouped sum (FK join preserves rows).
	li := testDB().MustTable("lineitem")
	pi := li.Schema.ColIndex("l_extendedprice")
	var want float64
	for _, r := range li.Rows {
		want += r[pi].Float
	}
	var got float64
	for _, r := range res.Rows {
		got += r[1].Float
	}
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("join lost revenue: %v vs %v", got, want)
	}
}

func TestRunProjectionAndOrder(t *testing.T) {
	res, err := Run(testDB(), q(t, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice >= 250000 ORDER BY o_totalprice"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.Columns) != 2 {
		t.Fatalf("cols=%d", len(res.Schema.Columns))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].Float < res.Rows[i-1][1].Float {
			t.Fatal("output not ordered")
		}
	}
	for _, r := range res.Rows {
		if r[1].Float < 250000 {
			t.Fatal("filter violated")
		}
	}
}

func TestRunSelectStar(t *testing.T) {
	res, err := Run(testDB(), q(t, "SELECT * FROM nation"))
	if err != nil {
		t.Fatal(err)
	}
	nt := testDB().MustTable("nation")
	if len(res.Rows) != len(nt.Rows) || len(res.Schema.Columns) != len(nt.Schema.Columns) {
		t.Fatalf("star projection: %dx%d", len(res.Rows), len(res.Schema.Columns))
	}
}

func TestRunMinMaxAvg(t *testing.T) {
	res, err := Run(testDB(), q(t, "SELECT MIN(l_quantity), MAX(l_quantity), AVG(l_quantity) FROM lineitem GROUP BY l_linestatus"))
	if err != nil {
		t.Fatal(err)
	}
	// Output schema: group-by column first, then the aggregates.
	for _, r := range res.Rows {
		mn, mx, avg := r[1].Int, r[2].Int, r[3].Float
		if mn < 1 || mx > 50 || avg < float64(mn) || avg > float64(mx) {
			t.Fatalf("implausible aggregates: min=%d max=%d avg=%v", mn, mx, avg)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(testDB(), &workload.Query{}); err == nil {
		t.Fatal("no tables must error")
	}
	if _, err := Run(testDB(), q(t, "SELECT ghost FROM lineitem")); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := CountMatching(testDB(), "ghost", nil); err == nil {
		t.Fatal("unknown table must error")
	}
}

// TestAllTPCHQueriesExecute runs every workload query through the executor —
// an integration check that the workload, parser, join machinery and
// aggregation agree.
func TestAllTPCHQueriesExecute(t *testing.T) {
	for _, s := range workloads.MustTPCH().Queries() {
		res, err := Run(testDB(), s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		if res == nil {
			t.Fatalf("%s: nil result", s.Label)
		}
	}
}

func TestAllSalesQueriesExecute(t *testing.T) {
	sdb := datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 5})
	for _, s := range workloads.MustSales(5).Queries() {
		if _, err := Run(sdb, s.Query); err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
	}
}

// TestSelectivityEstimatesAgainstTruth validates the optimizer's cardinality
// estimation against executed ground truth across a predicate battery.
func TestSelectivityEstimatesAgainstTruth(t *testing.T) {
	d := testDB()
	li := d.MustTable("lineitem")
	cases := []workload.Predicate{
		{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(25)},
		{Col: "l_quantity", Op: workload.OpGt, Lo: storage.IntVal(40)},
		{Col: "l_shipdate", Op: workload.OpBetween, Lo: storage.DateVal(9000), Hi: storage.DateVal(9365)},
		{Col: "l_shipmode", Op: workload.OpEq, Lo: storage.StringVal("RAIL")},
		{Col: "l_returnflag", Op: workload.OpNe, Lo: storage.StringVal("N")},
		{Col: "l_discount", Op: workload.OpLe, Lo: storage.FloatVal(0.02)},
	}
	for _, p := range cases {
		est := optimizer.PredicateSelectivity(li, p)
		truth, err := CountMatching(d, "lineitem", []workload.Predicate{p})
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(truth) / float64(li.RowCount())
		if math.Abs(est-actual) > 0.12 {
			t.Errorf("%s: estimated %.3f actual %.3f", p, est, actual)
		}
	}
}
