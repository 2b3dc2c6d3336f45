package workload

import (
	"strings"
	"testing"

	"cadb/internal/storage"
)

func TestPredicateSargable(t *testing.T) {
	if (Predicate{Op: OpNe}).Sargable() {
		t.Fatal("<> is not sargable")
	}
	for _, op := range []CmpOp{OpEq, OpLt, OpLe, OpGt, OpGe, OpBetween} {
		if !(Predicate{Op: op}).Sargable() {
			t.Fatalf("%s should be sargable", op)
		}
	}
}

func TestQueryPredsOnResolution(t *testing.T) {
	q := &Query{
		Tables: []string{"t1", "t2"},
		Preds: []Predicate{
			{Table: "t1", Col: "x", Op: OpEq, Lo: storage.IntVal(1)},
			{Col: "y", Op: OpEq, Lo: storage.IntVal(2)}, // unqualified
		},
	}
	has := func(table, col string) bool {
		return (table == "t1" && col == "x") || (table == "t2" && col == "y")
	}
	if got := q.PredsOn("t1", has); len(got) != 1 || got[0].Col != "x" {
		t.Fatalf("t1 preds=%v", got)
	}
	if got := q.PredsOn("t2", has); len(got) != 1 || got[0].Col != "y" {
		t.Fatalf("t2 preds=%v", got)
	}
	// Qualified predicate must be case-insensitive.
	if got := q.PredsOn("T1", has); len(got) != 1 {
		t.Fatalf("case-insensitive resolution failed: %v", got)
	}
}

func TestQueryColumnsOnCollectsAllUsage(t *testing.T) {
	q := &Query{
		Tables:  []string{"t"},
		Preds:   []Predicate{{Col: "p", Op: OpEq, Lo: storage.IntVal(1)}},
		Select:  []ColRef{{Col: "s"}},
		Aggs:    []Aggregate{{Func: AggSum, Col: ColRef{Col: "a"}}},
		GroupBy: []ColRef{{Col: "g"}},
		OrderBy: []ColRef{{Col: "o"}},
		Joins:   []Join{{LeftTable: "t", LeftCol: "j", RightTable: "u", RightCol: "k"}},
	}
	has := func(table, col string) bool { return table == "t" }
	cols := q.ColumnsOn("t", has)
	for _, want := range []string{"p", "s", "a", "g", "o", "j"} {
		found := false
		for _, c := range cols {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing column %q in %v", want, cols)
		}
	}
	nonPred := q.NonPredColumnsOn("t", has)
	for _, c := range nonPred {
		if c == "p" {
			t.Fatal("NonPredColumnsOn must exclude predicate-only columns")
		}
	}
}

func TestQuerySingleTable(t *testing.T) {
	q := &Query{Tables: []string{"t"}}
	if n, ok := q.SingleTable(); !ok || n != "t" {
		t.Fatal("single table detection failed")
	}
	q2 := &Query{Tables: []string{"a", "b"}}
	if _, ok := q2.SingleTable(); ok {
		t.Fatal("two tables is not single")
	}
}

func TestWorkloadPartitionAndReweight(t *testing.T) {
	wl := &Workload{Statements: []*Statement{
		{Query: &Query{Tables: []string{"t"}}, Weight: 2, Label: "Q"},
		{Insert: &Insert{Table: "t", Rows: 100}, Weight: 3, Label: "L"},
	}}
	if len(wl.Queries()) != 1 || len(wl.Inserts()) != 1 {
		t.Fatal("partition broken")
	}
	if wl.TotalWeight() != 5 {
		t.Fatalf("total weight=%v", wl.TotalWeight())
	}
	rw := wl.Reweight(0.5)
	if rw.Statements[1].Weight != 1.5 || wl.Statements[1].Weight != 3 {
		t.Fatal("reweight must scale inserts and not mutate the original")
	}
	if rw.Statements[0].Weight != 2 {
		t.Fatal("reweight must leave queries alone")
	}
}

func TestStringRenderings(t *testing.T) {
	q := &Query{
		Tables:  []string{"t"},
		Select:  []ColRef{{Col: "a"}},
		Aggs:    []Aggregate{{Func: AggCount}},
		Preds:   []Predicate{{Col: "b", Op: OpBetween, Lo: storage.IntVal(1), Hi: storage.IntVal(2)}},
		GroupBy: []ColRef{{Col: "a"}},
	}
	out := q.String()
	for _, want := range []string{"SELECT a, COUNT(*)", "FROM t", "b BETWEEN 1 AND 2", "GROUP BY a"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	ins := &Insert{Table: "t", Rows: 42}
	if !strings.Contains(ins.String(), "BULK 42") {
		t.Error("insert rendering")
	}
	s := &Statement{Insert: ins, Weight: 2, Label: "L"}
	if !strings.Contains(s.String(), "[L w=2]") {
		t.Errorf("statement rendering: %s", s)
	}
	if (&Statement{}).String() == "" {
		t.Error("empty statement must render something")
	}
	for _, f := range []AggFunc{AggSum, AggCount, AggAvg, AggMin, AggMax} {
		if f.String() == "?" {
			t.Error("agg func missing name")
		}
	}
}

func TestUpdateDeleteIR(t *testing.T) {
	u := &Update{
		Table: "t",
		Set: []Assignment{
			{Col: "a", Value: storage.IntVal(1)},
			{Col: "B", Value: storage.IntVal(2)},
			{Col: "A", Value: storage.IntVal(3)}, // dup of a, different case
		},
		Preds: []Predicate{{Col: "c", Op: OpGe, Lo: storage.IntVal(5)}},
	}
	if got := u.SetCols(); len(got) != 2 || got[0] != "a" || got[1] != "B" {
		t.Fatalf("SetCols=%v", got)
	}
	if !u.Touches("A") || !u.Touches("b") || u.Touches("c") {
		t.Fatal("Touches should fold case and ignore predicate columns")
	}
	for _, want := range []string{"UPDATE t SET", "a = 1", "WHERE c >= 5"} {
		if !strings.Contains(u.String(), want) {
			t.Errorf("update String()=%q missing %q", u.String(), want)
		}
	}
	d := &Delete{Table: "t", Preds: []Predicate{{Col: "x", Op: OpEq, Lo: storage.IntVal(9)}}}
	if !strings.Contains(d.String(), "DELETE FROM t WHERE x = 9") {
		t.Errorf("delete String()=%q", d.String())
	}

	su := &Statement{Update: u}
	sd := &Statement{Delete: d}
	si := &Statement{Insert: &Insert{Table: "t", Rows: 1}}
	sq := &Statement{Query: &Query{Tables: []string{"t"}}}
	for _, s := range []*Statement{su, sd, si} {
		if !s.IsWrite() {
			t.Errorf("%s should be a write", s)
		}
		if tbl, ok := s.WriteTable(); !ok || tbl != "t" {
			t.Errorf("WriteTable(%s)=%q,%v", s, tbl, ok)
		}
	}
	if sq.IsWrite() {
		t.Error("query is not a write")
	}
	if _, ok := sq.WriteTable(); ok {
		t.Error("query has no write table")
	}
	if len(su.WritePreds()) != 1 || len(sd.WritePreds()) != 1 || si.WritePreds() != nil {
		t.Error("WritePreds mismatch")
	}
}

func TestReweightUpdatesAndWrites(t *testing.T) {
	wl := &Workload{Statements: []*Statement{
		{Query: &Query{Tables: []string{"t"}}, Weight: 1},
		{Insert: &Insert{Table: "t", Rows: 10}, Weight: 1},
		{Update: &Update{Table: "t"}, Weight: 2},
		{Delete: &Delete{Table: "t"}, Weight: 3},
	}}
	up := wl.ReweightUpdates(10)
	if w := up.Statements[0].Weight; w != 1 {
		t.Fatalf("query weight changed: %v", w)
	}
	if w := up.Statements[1].Weight; w != 1 {
		t.Fatalf("insert weight changed by ReweightUpdates: %v", w)
	}
	if up.Statements[2].Weight != 20 || up.Statements[3].Weight != 30 {
		t.Fatalf("update/delete weights not scaled: %v %v", up.Statements[2].Weight, up.Statements[3].Weight)
	}
	all := wl.ReweightWrites(2)
	if all.Statements[1].Weight != 2 || all.Statements[2].Weight != 4 || all.Statements[3].Weight != 6 {
		t.Fatal("ReweightWrites must scale all writes")
	}
	if wl.Statements[2].Weight != 2 {
		t.Fatal("reweight must not mutate the receiver")
	}
	if got := len(wl.Updates()); got != 2 {
		t.Fatalf("Updates()=%d want 2", got)
	}
}
