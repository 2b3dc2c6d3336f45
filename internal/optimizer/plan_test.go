package optimizer

import (
	"strings"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/workload"
)

func TestTreeHeightMonotone(t *testing.T) {
	cm := NewCostModel(testDB(t))
	if h := cm.treeHeight(1); h != 1 {
		t.Fatalf("single leaf height=%v", h)
	}
	prev := 0.0
	for _, pages := range []float64{1, 10, 1000, 1e6} {
		h := cm.treeHeight(pages)
		if h < prev {
			t.Fatalf("height must be monotone in pages: %v at %v", h, pages)
		}
		prev = h
	}
	if cm.treeHeight(1e6) > 5 {
		t.Fatal("implausibly tall tree")
	}
}

func TestPlanStringMentionsAccessPath(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	q := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9100")
	cover := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_extendedprice"}})
	plan := cm.Plan(q, NewConfiguration(cover))
	s := plan.String()
	if !strings.Contains(s, "seek") {
		t.Fatalf("plan should seek the covering index: %s", s)
	}
	base := cm.Plan(q, NewConfiguration())
	if !strings.Contains(base.String(), "heap-scan") {
		t.Fatalf("base plan should heap-scan: %s", base.String())
	}
}

func TestConfigurationString(t *testing.T) {
	if got := NewConfiguration().String(); !strings.Contains(got, "base tables") {
		t.Fatalf("empty config rendering: %q", got)
	}
	h := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})
	if got := NewConfiguration(h).String(); !strings.Contains(got, "o_orderdate") {
		t.Fatalf("config rendering: %q", got)
	}
	if !strings.Contains(h.String(), "cf=") {
		t.Fatalf("hypo rendering: %q", h.String())
	}
}

func TestMVMatchRejectsMismatchedJoins(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	mv := &index.MVDef{
		Name:    "mv_j",
		Fact:    "lineitem",
		Joins:   []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}},
		GroupBy: []workload.ColRef{{Table: "supplier", Col: "s_nationkey"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	mvIdx := build(t, &index.Def{Table: "mv_j", KeyCols: []string{"supplier_s_nationkey"}, MV: mv})
	// The same aggregate without the join must not match.
	noJoin := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem GROUP BY l_suppkey")
	if cm.Cost(noJoin, NewConfiguration(mvIdx)) != cm.Cost(noJoin, NewConfiguration()) {
		t.Fatal("join mismatch must prevent MV use")
	}
	// The matching join query must use it.
	withJoin := parseQ(t, `SELECT supplier.s_nationkey, SUM(lineitem.l_extendedprice)
		FROM lineitem JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey
		GROUP BY supplier.s_nationkey`)
	if cm.Cost(withJoin, NewConfiguration(mvIdx)) >= cm.Cost(withJoin, NewConfiguration()) {
		t.Fatal("matching MV should be used")
	}
}

func TestMVResidualPredicateOnGroupBy(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	mv := &index.MVDef{
		Name:    "mv_r",
		Fact:    "lineitem",
		GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
	}
	mvIdx := build(t, &index.Def{Table: "mv_r", KeyCols: []string{"lineitem_l_shipmode"}, MV: mv})
	// A residual predicate on the group-by column can filter the MV.
	q := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipmode = 'AIR' GROUP BY l_shipmode")
	if cm.Cost(q, NewConfiguration(mvIdx)) >= cm.Cost(q, NewConfiguration()) {
		t.Fatal("MV with residual group-by predicate should be used")
	}
	// A predicate on a non-group-by column cannot be answered by the MV.
	q2 := parseQ(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity <= 5 GROUP BY l_shipmode")
	if cm.Cost(q2, NewConfiguration(mvIdx)) != cm.Cost(q2, NewConfiguration()) {
		t.Fatal("MV missing the predicate column must not be used")
	}
}

// TestMVMatchComparesLiteralsExactly is the regression test for MV matching
// on rendered, case-folded predicate text: an MV filtered on
// l_returnflag = 'R' holds none of the rows a query on l_returnflag = 'r'
// wants, so it must not answer it — while identifiers still match in any
// case.
func TestMVMatchComparesLiteralsExactly(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	own := parseQ(t, "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_returnflag = 'R' GROUP BY l_shipmode")
	mv := &index.MVDef{
		Name:    "mv_case",
		Fact:    "lineitem",
		Where:   own.Query.Preds,
		GroupBy: own.Query.GroupBy,
		Aggs:    own.Query.Aggs,
	}
	mvIdx := build(t, &index.Def{Table: "mv_case", KeyCols: []string{"l_shipmode"}, MV: mv})
	cfg := NewConfiguration(mvIdx)

	if p := cm.Plan(own, cfg); p.Note != "answered from MV" {
		t.Fatalf("the MV must answer the query it mirrors: %s", p)
	}
	spelled := parseQ(t, "SELECT L_SHIPMODE, SUM(L_EXTENDEDPRICE) FROM LineItem WHERE L_ReturnFlag = 'R' GROUP BY L_ShipMode")
	if p := cm.Plan(spelled, cfg); p.Note != "answered from MV" {
		t.Fatalf("identifier case must not matter to MV matching: %s", p)
	}
	lower := parseQ(t, "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_returnflag = 'r' GROUP BY l_shipmode")
	if p := cm.Plan(lower, cfg); p.Note != "" || p.Total != cm.Cost(lower, NewConfiguration()) {
		t.Fatalf("an MV filtered on 'R' must not answer a query on 'r': %s", p)
	}
}

func TestCompressedClusteredScanCPUVisible(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	// Full-table aggregate: compressed clustered index reads fewer pages but
	// pays decompression CPU on every tuple-column.
	q := parseQ(t, "SELECT SUM(o_totalprice), COUNT(*) FROM orders")
	unc := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderkey"}, Clustered: true})
	page := build(t, (&index.Def{Table: "orders", KeyCols: []string{"o_orderkey"}, Clustered: true}).WithMethod(compress.Page))
	cu := cm.Cost(q, NewConfiguration(unc))
	cc := cm.Cost(q, NewConfiguration(page))
	ioDelta := cm.SeqPageIO * float64(unc.Pages()-page.Pages())
	if cu-cc >= ioDelta {
		t.Fatalf("decompression CPU missing from clustered scan: saved=%v ioDelta=%v", cu-cc, ioDelta)
	}
}

func TestWithoutAndReplacePreserveOthers(t *testing.T) {
	a := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})
	b := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_custkey"}})
	c := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_clerk"}})
	cfg := NewConfiguration(a, b, c)
	without := cfg.Without(b)
	if without.Len() != 2 || without.Contains(b.Def) {
		t.Fatal("Without broken")
	}
	if !without.Contains(a.Def) || !without.Contains(c.Def) {
		t.Fatal("Without dropped the wrong index")
	}
	repl := build(t, (&index.Def{Table: "orders", KeyCols: []string{"o_custkey"}}).WithMethod(compress.Row))
	replaced := cfg.Replace(b, repl)
	if !replaced.Contains(repl.Def) || replaced.Contains(b.Def) || replaced.Len() != 3 {
		t.Fatal("Replace broken")
	}
}
