package cadb

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 3000, Seed: 1})
	wl := SelectIntensive(TPCHWorkload())
	budget := db.TotalHeapBytes() / 4

	rec, err := Tune(db, wl, DefaultOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatalf("improvement=%v", rec.Improvement)
	}
	if rec.SizeBytes > budget {
		t.Fatalf("budget exceeded: %d > %d", rec.SizeBytes, budget)
	}

	dta, err := Tune(db, wl, DTAOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range dta.Config.Indexes() {
		if h.Def.Method != NoCompression {
			t.Fatal("DTA options must not produce compressed indexes")
		}
	}
}

func TestFacadeWorkloadParsing(t *testing.T) {
	wl, err := ParseWorkload(`
-- label: Q1 weight: 2
SELECT state, SUM(price) FROM sales WHERE orderdate >= DATE 12100 GROUP BY state;
INSERT INTO sales BULK 100;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Statements) != 2 || wl.Statements[0].Weight != 2 {
		t.Fatalf("parse result: %+v", wl.Statements)
	}
	if _, err := ParseStatement("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStatement("DROP TABLE t"); err == nil {
		t.Fatal("unsupported statement must error")
	}
}

func TestFacadeWhatIf(t *testing.T) {
	db := NewSales(SalesConfig{FactRows: 2000, Seed: 2})
	cm := NewCostModel(db)
	stmt, err := ParseStatement("SELECT SUM(price) FROM sales WHERE orderdate BETWEEN DATE 12100 AND DATE 12200")
	if err != nil {
		t.Fatal(err)
	}
	base := cm.Cost(stmt, NewConfiguration())
	phys, err := BuildIndex(db, (&IndexDef{Table: "sales", KeyCols: []string{"orderdate"}, IncludeCols: []string{"price"}}).WithMethod(PageCompression))
	if err != nil {
		t.Fatal(err)
	}
	with := cm.Cost(stmt, NewConfiguration(FromPhysical(phys)))
	if with >= base {
		t.Fatalf("covering compressed index should help: %v vs %v", with, base)
	}
}

func TestFacadeSizeEstimation(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 4000, Seed: 3})
	targets := []*IndexDef{
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate"}}).WithMethod(RowCompression),
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_quantity"}}).WithMethod(RowCompression),
		(&IndexDef{Table: "lineitem", KeyCols: []string{"l_quantity"}}).WithMethod(RowCompression),
	}
	plan, est := PlanEstimation(db, targets, 0.5, 0.9, 1)
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %s", plan.Describe())
	}
	got, err := ExecuteEstimation(est, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range targets {
		e := got[d.ID()]
		if e == nil || e.Bytes <= 0 {
			t.Fatalf("missing estimate for %s", d)
		}
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 19 {
		t.Fatalf("experiments=%d want 19", len(ids))
	}
	var buf bytes.Buffer
	sc := QuickExperimentScale()
	sc.LineitemRows = 2000
	if err := RunExperiment("table4", sc, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Greedy") {
		t.Fatalf("unexpected report: %s", buf.String())
	}
}

// TestFacadeSegmentStore closes the loop at the facade level: tune a
// database, materialize the recommended design as a real page store, and
// run the workload's queries through it — results must match the plain-row
// oracle and report physical I/O.
func TestFacadeSegmentStore(t *testing.T) {
	db := NewTPCH(TPCHConfig{LineitemRows: 3000, Seed: 2})
	wl := SelectIntensive(TPCHWorkload())
	rec, err := Tune(db, wl, DefaultOptions(db.TotalHeapBytes()/4))
	if err != nil {
		t.Fatal(err)
	}
	var defs []*IndexDef
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	st, err := NewSegmentStore(db, defs)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, s := range wl.Queries() {
		res, err := st.RunQuery(s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		if len(res.Rows) > 0 && res.IO.PageReads == 0 {
			t.Fatalf("%s: rows without page reads", s.Label)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no queries executed")
	}

	// A recommended structure materializes within the size model's tolerance.
	for _, h := range rec.Config.Indexes() {
		if h.Def.IsMV() || h.Def.Method == GlobalDictCompression || h.Def.Method == RLECompression {
			continue
		}
		si, err := BuildSegmentIndex(db, h.Def)
		if err != nil {
			t.Fatalf("%s: %v", h.Def, err)
		}
		model, err := BuildIndex(db, h.Def)
		if err != nil {
			t.Fatalf("%s: %v", h.Def, err)
		}
		if e := si.SizeError(model); e > 0.10 || e < -0.10 {
			t.Fatalf("%s: size model off by %.1f%%", h.Def, 100*e)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	if db := NewTPCDS(TPCDSConfig{StoreSalesRows: 1000, Seed: 1}); db.Table("store_sales") == nil {
		t.Fatal("tpcds missing fact table")
	}
	if wl := SalesWorkload(1); len(wl.Queries()) != 50 {
		t.Fatal("sales workload wrong size")
	}
	base := TPCHWorkload()
	ins := InsertIntensive(base)
	if ins.Inserts()[0].Weight <= base.Inserts()[0].Weight {
		t.Fatal("InsertIntensive must raise load weights")
	}
}
