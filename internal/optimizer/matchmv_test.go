package optimizer

import (
	"testing"

	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/workload"
)

// salesQuery parses one query.
func salesQuery(t *testing.T, sql string) *workload.Query {
	t.Helper()
	return parseQ(t, sql).Query
}

// TestAvgFromSumNeedsNotNull: AVG(x) is read as a view's SUM(x) over its
// __count only where x is NOT NULL. On customers.loyalty, which holds NULLs,
// that quotient is not the average — __count counts the rows, not the
// non-NULL values — so MatchMV refuses it, and the cost model does not read
// the view; on sales.price, which is NOT NULL, the derivation holds and is
// exact.
func TestAvgFromSumNeedsNotNull(t *testing.T) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 2000, Zipf: 0.8, Seed: 5})
	join := "FROM sales JOIN customers ON sales.custid = customers.custid"
	view := salesQuery(t, "SELECT customers.segment, SUM(customers.loyalty), SUM(sales.price) "+join+" GROUP BY customers.segment")
	mv := &index.MVDef{Name: "v", Fact: "sales", Joins: view.Joins, GroupBy: view.GroupBy, Aggs: view.Aggs}

	nullable := salesQuery(t, "SELECT customers.segment, AVG(customers.loyalty) "+join+" GROUP BY customers.segment")
	if _, ok := MatchMV(db, mv, nullable); ok {
		t.Fatal("AVG over a nullable column was derived from SUM over __count")
	}
	// The quotient the rule refuses differs from the average in some group.
	vs, vrows, err := index.MaterializeMV(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	qs, qrows, err := index.MaterializeMV(db, &index.MVDef{Name: "q", Fact: "sales", Joins: nullable.Joins, GroupBy: nullable.GroupBy, Aggs: nullable.Aggs})
	if err != nil {
		t.Fatal(err)
	}
	avg := make(map[string]float64)
	for _, r := range qrows {
		avg[r[0].Str] = r[qs.ColIndex("avg_customers_loyalty")].Float
	}
	wrong := 0
	for _, r := range vrows {
		quotient := r[vs.ColIndex("sum_customers_loyalty")].Float / float64(r[vs.ColIndex("__count")].Int)
		if quotient != avg[r[0].Str] {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("no group's SUM/__count differs from its AVG: the case no longer shows the rule's need")
	}
	p, err := index.Build(db, viewIndex(mv))
	if err != nil {
		t.Fatal(err)
	}
	vi := FromPhysical(p)
	cm := NewCostModel(db)
	if plan := cm.Plan(&workload.Statement{Query: nullable}, NewConfiguration(vi)); len(plan.Paths) > 0 && plan.Paths[0].Index == vi {
		t.Fatalf("the plan reads the view: %v", plan)
	}

	notNull := salesQuery(t, "SELECT customers.segment, AVG(sales.price), COUNT(*) "+join+" GROUP BY customers.segment")
	ans, ok := MatchMV(db, mv, notNull)
	if !ok {
		t.Fatal("AVG over a NOT NULL column was not derived from SUM over __count")
	}
	if want := []MVAgg{{Src: 1, Avg: true}, {Src: -1}}; len(ans.Aggs) != 2 || ans.Aggs[0] != want[0] || ans.Aggs[1] != want[1] {
		t.Fatalf("aggregates located at %+v, want %+v", ans.Aggs, want)
	}
}

// viewIndex is the index over a view as the advisor builds one: keyed by
// its group-by columns, carrying every other view column.
func viewIndex(mv *index.MVDef) *index.Def {
	cols := index.GroupedColumns(mv.GroupBy, mv.Aggs)
	n := len(mv.GroupBy)
	return &index.Def{Table: mv.Name, KeyCols: cols[:n], IncludeCols: cols[n:], MV: mv}
}

// TestMatchMVRule pins what MatchMV accepts: the view's groups are the
// query's, residual predicates only on group-by columns, columns matched by
// table where both name one, and only grouped views for grouped queries.
func TestMatchMVRule(t *testing.T) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 500, Zipf: 0.8, Seed: 5})
	view := salesQuery(t, "SELECT sales.state, channel, SUM(price), COUNT(*) FROM sales WHERE qty >= 3 GROUP BY sales.state, channel")
	mv := &index.MVDef{Name: "v", Fact: "sales", Where: view.Preds, GroupBy: view.GroupBy, Aggs: view.Aggs}
	for _, c := range []struct {
		sql      string
		ok       bool
		residual int
	}{
		{"SELECT channel, state, COUNT(*), SUM(price) FROM sales WHERE qty >= 3 GROUP BY channel, state", true, 0},
		{"SELECT state, channel, SUM(price) FROM sales WHERE qty >= 3 AND state = 'CA' AND channel <> 'WEB' GROUP BY state, channel", true, 2},
		{"SELECT state, channel, SUM(price) FROM sales WHERE qty >= 4 GROUP BY state, channel", false, 0},                         // the view's WHERE is not the query's
		{"SELECT state, channel, SUM(price) FROM sales WHERE qty >= 3 AND price > 9 GROUP BY state, channel", false, 0},           // a residual off the groups
		{"SELECT state, SUM(price) FROM sales WHERE qty >= 3 GROUP BY state", false, 0},                                           // other groups
		{"SELECT state, channel, MIN(price) FROM sales WHERE qty >= 3 GROUP BY state, channel", false, 0},                         // an aggregate the view lacks
		{"SELECT state, channel, AVG(price) FROM sales WHERE qty >= 3 GROUP BY state, channel", true, 0},                          // price is NOT NULL
		{"SELECT state, channel, SUM(price) FROM sales WHERE qty >= 3 AND stores.state = 'CA' GROUP BY state, channel", false, 0}, // another table's state
		{"SELECT * FROM sales WHERE qty >= 3", false, 0},                                                                          // an ungrouped query
	} {
		ans, ok := MatchMV(db, mv, salesQuery(t, c.sql))
		if ok != c.ok || ok && len(ans.Residual) != c.residual {
			t.Errorf("%s: MatchMV = %v %+v, want %v with %d residual predicates", c.sql, ok, ans, c.ok, c.residual)
		}
	}
	ans, ok := MatchMV(db, mv, salesQuery(t, "SELECT channel, state, COUNT(*), SUM(price) FROM sales WHERE qty >= 3 GROUP BY channel, state"))
	if !ok || ans.Groups[0] != 1 || ans.Groups[1] != 0 || ans.Aggs[0] != (MVAgg{Src: 1}) || ans.Aggs[1] != (MVAgg{Src: 0}) {
		t.Errorf("columns located at %+v", ans)
	}
	projection := &index.MVDef{Name: "p", Fact: "sales", Where: view.Preds}
	if _, ok := MatchMV(db, projection, salesQuery(t, "SELECT * FROM sales WHERE qty >= 3")); ok {
		t.Error("a join-projection view answers a query")
	}
}
