package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/workloads"
)

// viewDef is the index over the view a grouped SQL statement defines: its
// fact table, joins, WHERE, GROUP BY and aggregates, keyed and carrying
// columns as the advisor's view candidates are (core.MVIndexDef).
func viewDef(t *testing.T, name, sql string, m compress.Method) *index.Def {
	t.Helper()
	vq := q(t, sql)
	mv := &index.MVDef{Name: name, Fact: vq.Tables[0], Joins: vq.Joins, Where: vq.Preds, GroupBy: vq.GroupBy, Aggs: vq.Aggs}
	return core.MVIndexDef(mv).WithMethod(m)
}

// salesViews is a Sales design with five views beside a clustered fact
// table: a nullable group key (promo), a date key a residual range seeks on
// with SUMs to derive AVG from, a join keyed on a dimension column, nullable
// aggregate inputs, and a view no row qualifies for.
func salesViews(t *testing.T) []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Page},
		viewDef(t, "v_promo", "SELECT promo, COUNT(*), SUM(price) FROM sales WHERE discount >= 0.1 GROUP BY promo", compress.Row),
		viewDef(t, "v_day", "SELECT orderdate, SUM(price), SUM(discount) FROM sales GROUP BY orderdate", compress.Page),
		viewDef(t, "v_region", "SELECT stores.region, SUM(sales.price), COUNT(*) FROM sales JOIN stores ON sales.storeid = stores.storeid WHERE sales.qty >= 5 GROUP BY stores.region", compress.GlobalDict),
		viewDef(t, "v_segment", "SELECT customers.segment, MIN(customers.loyalty), COUNT(customers.loyalty), SUM(customers.loyalty), MAX(sales.orderdate) FROM sales JOIN customers ON sales.custid = customers.custid GROUP BY customers.segment", compress.RLE),
		viewDef(t, "v_empty", "SELECT channel, SUM(price) FROM sales WHERE qty > 1000 GROUP BY channel", compress.None),
	}
}

// viewQueries are answered from salesViews, each by the view it names;
// the last one's AVG is over a nullable column, so no view answers it.
var viewQueries = []struct{ view, sql string }{
	{"v_promo", "SELECT promo, COUNT(*), SUM(price) FROM sales WHERE discount >= 0.1 GROUP BY promo"},
	{"v_promo", "SELECT promo, SUM(price) FROM sales WHERE discount >= 0.1 AND promo = 'VIP20' GROUP BY promo"},
	{"v_promo", "SELECT promo, COUNT(*) FROM sales WHERE promo <> 'SPRING10' AND discount >= 0.1 GROUP BY promo"},
	{"v_day", "SELECT orderdate, AVG(discount), SUM(price) FROM sales WHERE orderdate BETWEEN DATE 12100 AND DATE 12300 GROUP BY orderdate"},
	{"v_day", "SELECT orderdate, SUM(discount) FROM sales WHERE orderdate >= DATE 13000 GROUP BY orderdate ORDER BY orderdate"},
	{"v_region", "SELECT stores.region, COUNT(*), SUM(sales.price) FROM sales JOIN stores ON sales.storeid = stores.storeid WHERE sales.qty >= 5 AND stores.region = 'WEST' GROUP BY stores.region"},
	{"v_region", "SELECT stores.region, SUM(sales.price) FROM sales JOIN stores ON sales.storeid = stores.storeid WHERE sales.qty >= 5 GROUP BY stores.region"},
	{"v_segment", "SELECT customers.segment, COUNT(customers.loyalty), MIN(customers.loyalty), SUM(customers.loyalty), MAX(sales.orderdate) FROM sales JOIN customers ON sales.custid = customers.custid GROUP BY customers.segment"},
	{"v_empty", "SELECT channel, SUM(price) FROM sales WHERE qty > 1000 GROUP BY channel"},
	{"", "SELECT customers.segment, AVG(customers.loyalty) FROM sales JOIN customers ON sales.custid = customers.custid GROUP BY customers.segment"},
}

// viewWrites are applied in order, each followed by every view query. stale
// names the views the write must leave stale: those built from the table it
// changed, whatever columns it sets, and no other.
var viewWrites = []struct {
	sql   string
	stale []string
}{
	{"UPDATE sales SET note = 'touched' WHERE qty = 3", []string{"v_day", "v_empty", "v_promo", "v_region", "v_segment"}},
	{"UPDATE stores SET city = 'NOWHERE' WHERE storeid < 5", []string{"v_region"}},
	{"UPDATE stores SET region = 'WEST' WHERE storeid < 5", []string{"v_region"}},
	{"UPDATE customers SET loyalty = 7 WHERE custid < 50", []string{"v_segment"}},
	{"UPDATE sales SET discount = 0.5 WHERE qty = 2", []string{"v_day", "v_empty", "v_promo", "v_region", "v_segment"}},
	{"DELETE FROM stores WHERE storeid = 3", []string{"v_region"}},
	{"DELETE FROM customers WHERE custid < 20", []string{"v_segment"}},
	{"DELETE FROM sales WHERE qty = 1", []string{"v_day", "v_empty", "v_promo", "v_region", "v_segment"}},
}

// staleViews lists the views of the store that are stale, by name.
func staleViews(st *Store) []string {
	var out []string
	for _, h := range st.views {
		if h.stale {
			out = append(out, h.def.Table)
		}
	}
	slices.Sort(out)
	return out
}

// checkViewQueries runs every view query on the store and the oracle and
// checks that the results are byte-identical and that each is read from the
// view it names, or from no view when it names none.
func checkViewQueries(t *testing.T, label string, st *Store, oracleDB *catalog.Database) (seeks int) {
	t.Helper()
	for _, vq := range viewQueries {
		query := q(t, vq.sql)
		want, err := Run(oracleDB, query)
		if err != nil {
			t.Fatalf("%s: oracle: %s: %v", label, vq.sql, err)
		}
		got, err := st.RunQuery(query)
		if err != nil {
			t.Fatalf("%s: store: %s: %v", label, vq.sql, err)
		}
		assertResultsIdentical(t, fmt.Sprintf("%s: %s", label, vq.sql), got, want)
		fromView := len(got.Paths) == 1 && strings.HasPrefix(got.Paths[0], "mv-")
		switch {
		case vq.view == "" && fromView:
			t.Fatalf("%s: %s was read from a view: %v", label, vq.sql, got.Paths)
		case vq.view != "" && (!fromView || strings.Fields(got.Paths[0])[1] != vq.view):
			t.Fatalf("%s: %s: paths %v, want one read of %s", label, vq.sql, got.Paths, vq.view)
		}
		if fromView && strings.HasPrefix(got.Paths[0], "mv-seek") {
			seeks++
		}
	}
	if s := staleViews(st); len(s) > 0 {
		t.Fatalf("%s: views %v still stale after every view was read", label, s)
	}
	return seeks
}

// TestViewsMatchOracle is the differential sweep through materialized
// views, in memory and disk-backed: every view query is byte-identical to
// the plain-row oracle and read from its view — over residual predicates on
// group-by columns (a nullable one among them), an AVG derived from a SUM, a
// view with no rows — and stays so after each write in viewWrites, which
// leaves stale exactly the views built from the table it changed; the next
// read rebuilds them.
func TestViewsMatchOracle(t *testing.T) {
	cfg := datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 7}
	for _, disk := range []bool{false, true} {
		label := fmt.Sprintf("disk=%v", disk)
		oracleDB, storeDB := datagen.NewSales(cfg), datagen.NewSales(cfg)
		st, err := NewStore(storeDB, salesViews(t))
		if err != nil {
			t.Fatal(err)
		}
		if disk {
			st.SetDiskBacked(t.TempDir(), bufferpool.New(64<<20))
		}
		seeks := checkViewQueries(t, label, st, oracleDB)
		for _, h := range st.views {
			if h.def.Table == "v_empty" && h.si.Seg.Rows() != 0 {
				t.Fatalf("%s: v_empty holds %d rows", label, h.si.Seg.Rows())
			}
		}
		for _, w := range viewWrites {
			s := stmt(t, w.sql)
			var want, got int64
			if s.Update != nil {
				want, err = RunUpdate(oracleDB, s.Update)
				if err == nil {
					got, _, err = st.RunUpdate(s.Update)
				}
			} else {
				want, err = RunDelete(oracleDB, s.Delete)
				if err == nil {
					got, _, err = st.RunDelete(s.Delete)
				}
			}
			if err != nil || got != want || got == 0 {
				t.Fatalf("%s: %s: store wrote %d rows, oracle %d (%v)", label, w.sql, got, want, err)
			}
			if s := staleViews(st); !slices.Equal(s, w.stale) {
				t.Fatalf("%s: %s left views %v stale, want %v", label, w.sql, s, w.stale)
			}
			seeks += checkViewQueries(t, label+": after "+w.sql, st, oracleDB)
		}
		if seeks == 0 {
			t.Fatalf("%s: no view query seeked", label)
		}
		st.Close()
	}
}

// TestStoreAnswersFromViewsAsPlanned holds the one answerability rule on
// the sales-wide benchmark workload, tuned with views: the store reads a
// statement from a view exactly when its plan's path kind is mv-*, each such
// plan's view answers it under optimizer.MatchMV, and every result is
// byte-identical to the oracle's. Some statements are answered from a view.
func TestStoreAnswersFromViewsAsPlanned(t *testing.T) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 8000, Zipf: 0.8, Seed: 1})
	st, stmts := tunedStore(t, db, workloads.SelectIntensive(workloads.MustSales(1)), true)
	answered := 0
	for _, s := range stmts {
		got, err := st.RunQuery(s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		want, err := Run(db, s.Query)
		if err != nil {
			t.Fatalf("%s: oracle: %v", s.Label, err)
		}
		assertResultsIdentical(t, s.Label, got, want)
		plan, err := st.planFor(*s)
		if err != nil {
			t.Fatal(err)
		}
		planned := strings.HasPrefix(plan.Paths[0].Kind, "mv-")
		read := len(got.Paths) == 1 && strings.HasPrefix(got.Paths[0], "mv-")
		if planned != read {
			t.Fatalf("%s: the plan %v, the store read %v", s.Label, plan, got.Paths)
		}
		if planned {
			answered++
			if _, ok := optimizer.MatchMV(db, plan.Paths[0].Index.Def.MV, s.Query); !ok {
				t.Fatalf("%s: planned from %s, which cannot answer it", s.Label, plan.Paths[0].Index.Def)
			}
		}
	}
	t.Logf("%d of %d statements answered from %d views", answered, len(stmts), len(st.views))
	if answered == 0 {
		t.Fatal("no statement was answered from a view: the workload no longer covers the view path")
	}
}
