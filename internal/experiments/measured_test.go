package experiments

import (
	"math"
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// The acceptance checks behind the loop's size and page-read rows, at
// QuickScale over the TPC-H and Sales structure families and designs: the
// size model against materialized segments, and the segment-backed executor
// against the plain-row oracle.

func quickTPCH(sc Scale) *catalog.Database {
	return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: sc.LineitemRows, Seed: sc.Seed})
}

func quickSales(sc Scale) *catalog.Database {
	return datagen.NewSales(datagen.SalesConfig{FactRows: sc.SalesRows, Zipf: 0.8, Seed: sc.Seed})
}

// everyMethod is each structure under every materializable method.
func everyMethod(structures ...*index.Def) []*index.Def {
	var out []*index.Def
	for _, s := range structures {
		for _, m := range append([]compress.Method{compress.None}, compress.Methods...) {
			out = append(out, s.WithMethod(m))
		}
	}
	return out
}

// tpchStructures is a structure family over the TPC-H fact tables:
// clustered, plain and covering secondaries, and an MV.
func tpchStructures() []*index.Def {
	return everyMethod(
		&index.Def{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true},
		&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}},
		&index.Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}},
		&index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}},
		&index.Def{Table: "mv_mode_rev", KeyCols: []string{"lineitem_l_shipmode"}, MV: &index.MVDef{
			Name:    "mv_mode_rev",
			Fact:    "lineitem",
			GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
		}},
	)
}

func salesStructures() []*index.Def {
	return everyMethod(
		&index.Def{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true},
		&index.Def{Table: "sales", KeyCols: []string{"qty"}, IncludeCols: []string{"price"}},
		&index.Def{Table: "sales", KeyCols: []string{"state"}},
	)
}

// sizeMeasure is one definition's size model against its materialized
// segment, both built over the same leaf rows.
type sizeMeasure struct {
	seg   *index.SegmentIndex
	model *index.Physical
}

// byteErr is the relative size-model error, (estimated - actual) / actual.
func (m sizeMeasure) byteErr() float64 { return m.seg.SizeError(m.model) }

func measureSize(t *testing.T, db *catalog.Database, d *index.Def) sizeMeasure {
	t.Helper()
	schema, rows, err := index.MaterializeRows(db, d)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	si, err := index.BuildSegmentOver(schema, rows, d)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	model, err := index.BuildFromRows(schema, rows, d)
	if err != nil {
		t.Fatalf("%s: %v", d, err)
	}
	return sizeMeasure{seg: si, model: model}
}

// TestMeasuredSizesWithinTolerance pins the acceptance bound: materialized
// segment sizes against the size model (index.BuildFromRows) for every
// method on both TPC-H and Sales. NONE is the row-major reference and its
// materialized bytes are never more than 1% above the model. ROW values and
// section bitmaps cost what the model charges, so ROW is within 1% on every
// structure of 3 or more
// pages (measured: at most 0.54%, clustered lineitem). Every method is within
// 10% once the page frame the model does not charge (a u16 row count and a
// section length prefix per column) is allowed for; the worst error on 3 or
// more pages is sales(state) PAGE at −3.95%, and only the one-page MV needs
// the allowance (PAGE −12.8%, −7.7% with it).
func TestMeasuredSizesWithinTolerance(t *testing.T) {
	sc := QuickScale()
	for _, c := range []struct {
		name string
		db   *catalog.Database
		defs []*index.Def
	}{
		{"tpch", quickTPCH(sc), tpchStructures()},
		{"sales", quickSales(sc), salesStructures()},
	} {
		for _, d := range c.defs {
			m := measureSize(t, c.db, d)
			pages, actual := int64(m.seg.Seg.NumPages()), m.seg.MaterializedBytes()
			frame := pages * int64(2+len(m.seg.Schema().Columns))
			t.Logf("%s %s: %d pages, error %+.2f%%, with frame %+.2f%%", c.name, d, pages, 100*m.byteErr(), 100*float64(m.model.Bytes+frame-actual)/float64(actual))
			if m.byteErr() > 0.10 || float64(m.model.Bytes+frame-actual) < -0.10*float64(actual) {
				t.Errorf("%s %s: size error %.1f%% (est %d, actual %d, frame %d)",
					c.name, d, 100*m.byteErr(), m.model.Bytes, actual, frame)
			}
			if d.Method == compress.None && m.byteErr() < -0.01 {
				t.Errorf("%s %s: NONE size error %.2f%%, want never more than 1%% above the model",
					c.name, d, 100*m.byteErr())
			}
			if d.Method == compress.Row && pages >= 3 && math.Abs(m.byteErr()) > 0.01 {
				t.Errorf("%s %s: ROW size error %.2f%% over %d pages, want within 1%%",
					c.name, d, 100*m.byteErr(), pages)
			}
			if m.seg.MaterializedPages() == 0 || m.model.Pages == 0 {
				t.Errorf("%s %s: zero pages", c.name, d)
			}
		}
	}
}

// TestMixedDesignSizesWithinTolerance extends the size-model acceptance
// bound to mixed per-column designs — RLE where the sort order creates runs,
// GDICT on low-cardinality columns, ROW elsewhere: the design-aware
// decomposition must stay within 10% of the materialized segment.
func TestMixedDesignSizesWithinTolerance(t *testing.T) {
	sc := QuickScale()
	for _, c := range []struct {
		name string
		db   *catalog.Database
		defs []*index.Def
	}{
		{"tpch", quickTPCH(sc), []*index.Def{
			{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true, Method: compress.Row,
				ColMethods: map[string]compress.Method{
					"l_orderkey":   compress.RLE, // clustered order -> long runs
					"l_shipmode":   compress.GlobalDict,
					"l_returnflag": compress.GlobalDict,
					"l_linestatus": compress.GlobalDict,
				}},
			{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity", "l_extendedprice"}, Method: compress.Row,
				ColMethods: map[string]compress.Method{
					"l_shipdate": compress.RLE, // key order -> date runs
					"l_quantity": compress.GlobalDict,
				}},
		}},
		{"sales", quickSales(sc), []*index.Def{
			{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
				ColMethods: map[string]compress.Method{
					"orderdate": compress.RLE,
					"state":     compress.GlobalDict,
					"channel":   compress.GlobalDict,
				}},
		}},
	} {
		for _, d := range c.defs {
			if !d.IsMixed() {
				t.Errorf("%s %s: expected a mixed design", c.name, d)
			}
			m := measureSize(t, c.db, d)
			if e := math.Abs(m.byteErr()); e > 0.10 {
				t.Errorf("%s %s: size error %.1f%% (est %d, actual %d)",
					c.name, d, 100*e, m.model.Bytes, m.seg.MaterializedBytes())
			}
		}
	}
}

// scenario is one oracle-identity run: a workload over twin databases (mkdb
// must be deterministic) under one physical design.
type scenario struct {
	name string
	mkdb func() *catalog.Database
	wl   *workload.Workload
	defs []*index.Def
}

// scenarios are the TPC-H and Sales select and update mixes under designs
// with one method per structure, so a divergence is attributable to that
// method, and the two select mixes under mixed designs whose every segment
// carries at least two methods.
func scenarios(sc Scale) []scenario {
	tpch := func() *catalog.Database { return quickTPCH(sc) }
	sales := func() *catalog.Database { return quickSales(sc) }
	tpchDesign := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.Row},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.Row},
	}
	salesDesign := []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row},
		{Table: "sales", KeyCols: []string{"state"}, IncludeCols: []string{"price", "channel"}, Method: compress.Page},
	}
	tpchMixed := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"l_shipdate":   compress.RLE,
				"l_shipmode":   compress.GlobalDict,
				"l_returnflag": compress.GlobalDict,
			}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.GlobalDict,
			ColMethods: map[string]compress.Method{"l_extendedprice": compress.Row}},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.Row,
			ColMethods: map[string]compress.Method{"o_orderdate": compress.RLE}},
	}
	salesMixed := []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{
				"orderdate": compress.RLE,
				"state":     compress.GlobalDict,
				"channel":   compress.GlobalDict,
			}},
		{Table: "sales", KeyCols: []string{"state"}, IncludeCols: []string{"price", "channel"}, Method: compress.Page,
			ColMethods: map[string]compress.Method{
				"state": compress.RLE, // key order -> one run per state
				"price": compress.Row,
			}},
	}
	return []scenario{
		{"tpch/select", tpch, workloads.SelectIntensive(workloads.MustTPCH()), tpchDesign},
		{"tpch/update", tpch, workloads.UpdateIntensive(workloads.MustTPCHWithUpdates()), tpchDesign},
		{"sales/select", sales, workloads.SelectIntensive(workloads.MustSales(sc.Seed)), salesDesign},
		{"sales/update", sales, workloads.UpdateIntensive(workloads.MustSalesWithUpdates(sc.Seed)), salesDesign},
		{"tpch/mixed", tpch, workloads.SelectIntensive(workloads.MustTPCH()), tpchMixed},
		{"sales/mixed", sales, workloads.SelectIntensive(workloads.MustSales(sc.Seed)), salesMixed},
	}
}

// runScenario runs every statement of the scenario through the segment-backed
// store and the plain-row oracle, writes in workload order, and reports each
// statement whose rows (queries) or affected-row count (writes) differ. It
// returns how many statements ran, the optimizer's page-read estimate and the
// executor's counted page reads over all of them.
func runScenario(t *testing.T, s scenario) (ran int, est float64, counted int64) {
	t.Helper()
	oracleDB, storeDB := s.mkdb(), s.mkdb()
	st, err := exec.NewStore(storeDB, s.defs)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	defer st.Close()
	cm := optimizer.NewCostModel(oracleDB)
	var hypos []*optimizer.HypoIndex
	for _, d := range s.defs {
		p, err := index.Build(oracleDB, d)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		hypos = append(hypos, optimizer.FromPhysical(p))
	}
	cfg := optimizer.NewConfiguration(hypos...)

	for _, stmt := range s.wl.Statements {
		if stmt.Insert != nil {
			continue // bulk loads have no executable row semantics
		}
		ran++
		est += cm.Plan(stmt, cfg).EstimatedPageReads()
		identical := true
		switch {
		case stmt.Query != nil:
			want, err := exec.Run(oracleDB, stmt.Query)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", s.name, stmt.Label, err)
			}
			got, err := st.RunQuery(stmt.Query)
			if err != nil {
				t.Fatalf("%s %s: store: %v", s.name, stmt.Label, err)
			}
			counted += got.IO.PageReads
			identical = resultsIdentical(got, want)
		case stmt.Update != nil:
			want, err := exec.RunUpdate(oracleDB, stmt.Update)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", s.name, stmt.Label, err)
			}
			got, io, err := st.RunUpdate(stmt.Update)
			if err != nil {
				t.Fatalf("%s %s: store: %v", s.name, stmt.Label, err)
			}
			counted += io.PageReads
			identical = got == want
			// Writes invalidate the optimizer's premise too: refresh stats.
			cm.ResetCostCache()
		case stmt.Delete != nil:
			want, err := exec.RunDelete(oracleDB, stmt.Delete)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", s.name, stmt.Label, err)
			}
			got, io, err := st.RunDelete(stmt.Delete)
			if err != nil {
				t.Fatalf("%s %s: store: %v", s.name, stmt.Label, err)
			}
			counted += io.PageReads
			identical = got == want
			cm.ResetCostCache()
		}
		if !identical {
			t.Errorf("%s %s: store result differs from the plain-row oracle", s.name, stmt.Label)
		}
	}
	return ran, est, counted
}

// TestMeasuredExecutionIdenticalAcrossScenarios pins the other acceptance
// half: segment-backed execution agrees with the plain-row oracle for every
// built-in workload statement (including updates/deletes), with non-zero
// counted I/O and non-degenerate estimates.
func TestMeasuredExecutionIdenticalAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep is not short")
	}
	for _, s := range scenarios(QuickScale()) {
		ran, est, counted := runScenario(t, s)
		if ran == 0 {
			t.Fatalf("%s: no statements measured", s.name)
		}
		if counted == 0 || est == 0 {
			t.Errorf("%s: degenerate I/O totals (est=%g counted=%d)", s.name, est, counted)
		}
	}
}

// TestMixedScenarioDifferential is the mixed-design half of the oracle
// identity sweep, kept -short friendly so the CI race job always runs the
// executor's mixed-method decode paths under the race detector.
func TestMixedScenarioDifferential(t *testing.T) {
	mixed := 0
	for _, s := range scenarios(QuickScale()) {
		if !strings.HasSuffix(s.name, "/mixed") {
			continue
		}
		mixed++
		if ran, _, _ := runScenario(t, s); ran == 0 {
			t.Fatalf("%s: no statements measured", s.name)
		}
	}
	if mixed != 2 {
		t.Fatalf("expected 2 mixed scenarios, ran %d", mixed)
	}
}

// TestMeasuredDecodeBudgetPAGE is the decode-budget regression guard: with
// the fact table stored under PAGE compression, every selective single-table
// filter query of the built-in TPC-H and Sales select workloads must decode
// strictly fewer tuples than the rows it scans — predicate pushdown into the
// page decode, visible in the executor's own counters. (Short-mode friendly
// so CI always runs it.)
func TestMeasuredDecodeBudgetPAGE(t *testing.T) {
	sc := QuickScale()
	for _, c := range []struct {
		name, fact, key string
		db              *catalog.Database
		wl              *workload.Workload
	}{
		{"tpch", "lineitem", "l_shipdate", quickTPCH(sc), workloads.SelectIntensive(workloads.MustTPCH())},
		{"sales", "sales", "orderdate", quickSales(sc), workloads.SelectIntensive(workloads.MustSales(sc.Seed))},
	} {
		st, err := exec.NewStore(c.db, []*index.Def{
			{Table: c.fact, KeyCols: []string{c.key}, Clustered: true, Method: compress.Page},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		factRows := int64(len(c.db.MustTable(c.fact).Rows))
		checked := 0
		for _, s := range c.wl.Statements {
			q := s.Query
			if q == nil || len(q.Tables) != 1 || q.Tables[0] != c.fact || len(q.Preds) == 0 {
				continue
			}
			match, err := exec.CountMatching(c.db, c.fact, q.Preds)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, s.Label, err)
			}
			if match*2 > factRows {
				continue // not selective enough for the guard to be meaningful
			}
			res, err := st.RunQuery(q)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, s.Label, err)
			}
			if res.IO.TuplesDecoded >= factRows {
				t.Errorf("%s %s: decoded %d tuples over a %d-row fact table (%d qualifying) — pushdown regressed",
					c.name, s.Label, res.IO.TuplesDecoded, factRows, match)
			}
			checked++
		}
		st.Close()
		if checked == 0 {
			t.Fatalf("%s: workload has no selective single-table filter queries to guard", c.name)
		}
	}
}
