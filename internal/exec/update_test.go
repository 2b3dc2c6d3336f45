package exec

import (
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/sqlparse"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// freshDB returns a private database the test may mutate (testDB() is shared
// across the package and must stay read-only).
func freshDB() *catalog.Database {
	return datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 5})
}

func stmt(t *testing.T, sql string) *workload.Statement {
	t.Helper()
	s, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	s.Weight = 1
	return s
}

func TestRunUpdateAppliesAssignments(t *testing.T) {
	d := freshDB()
	li := d.MustTable("lineitem")
	u := stmt(t, "UPDATE lineitem SET l_discount = 0.5 WHERE l_quantity <= 5").Update

	want, err := CountMatching(d, "lineitem", u.Preds)
	if err != nil {
		t.Fatal(err)
	}
	n, err := RunUpdate(d, u)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("updated %d rows, CountMatching says %d qualify", n, want)
	}
	// Every qualifying row now carries the new value.
	di := li.Schema.ColIndex("l_discount")
	where, err := index.NewRowFilter(li.Schema, u.Preds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range li.Rows {
		if where.Keep(r) && r[di].Float != 0.5 {
			t.Fatalf("qualifying row not updated: %v", r[di])
		}
	}
	// Statistics were invalidated and rebuilt over the new values: 0.5 is now
	// the column max (generator discounts stop at 0.25).
	if max := li.Stats().Col("l_discount").Max; max.Float != 0.5 {
		t.Fatalf("stats not refreshed after update: max=%v", max)
	}
}

func TestRunDeleteRemovesRows(t *testing.T) {
	d := freshDB()
	li := d.MustTable("lineitem")
	before := li.RowCount()
	del := stmt(t, "DELETE FROM lineitem WHERE l_shipdate < DATE 8400").Delete

	want, err := CountMatching(d, "lineitem", del.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("test predicate matches nothing; pick a wider range")
	}
	n, err := RunDelete(d, del)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("deleted %d rows, CountMatching says %d qualify", n, want)
	}
	if got := li.RowCount(); got != before-n {
		t.Fatalf("row count %d after deleting %d of %d", got, n, before)
	}
	left, err := CountMatching(d, "lineitem", del.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("%d matching rows survived the delete", left)
	}
	if li.Stats().RowCount != before-n {
		t.Fatal("stats not refreshed after delete")
	}
}

func TestRunUpdateDeleteErrors(t *testing.T) {
	d := freshDB()
	if _, err := RunUpdate(d, &workload.Update{Table: "nope", Set: []workload.Assignment{{Col: "x", Value: storage.IntVal(1)}}}); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := RunUpdate(d, &workload.Update{Table: "lineitem", Set: []workload.Assignment{{Col: "no_such", Value: storage.IntVal(1)}}}); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := RunUpdate(d, &workload.Update{Table: "lineitem", Set: []workload.Assignment{{Col: "l_quantity", Value: storage.NullValue(storage.KindInt)}}}); err == nil {
		t.Error("NULL into non-nullable column must error")
	}
	if _, err := RunDelete(d, &workload.Delete{Table: "nope"}); err == nil {
		t.Error("unknown delete table must error")
	}
}

// TestWriteCardinalityMatchesExec is the differential test between the two
// stacks: the cost model's qualifying-row estimate for UPDATE/DELETE
// statements (the Rows of the lookup path, driven by histogram
// selectivities) must track the reference executor's ground-truth counts.
func TestWriteCardinalityMatchesExec(t *testing.T) {
	d := freshDB()
	cm := optimizer.NewCostModel(d)
	cases := []string{
		"UPDATE lineitem SET l_discount = 0.0 WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9365",
		"UPDATE lineitem SET l_tax = 0.01 WHERE l_quantity <= 10",
		"UPDATE orders SET o_orderpriority = 'X' WHERE o_orderdate >= DATE 10000",
		"UPDATE lineitem SET l_comment = 'x' WHERE l_quantity BETWEEN 5 AND 20 AND l_shipdate >= DATE 9500",
		"DELETE FROM lineitem WHERE l_shipdate < DATE 8500",
		"DELETE FROM orders WHERE o_orderdate BETWEEN DATE 9000 AND DATE 9200",
	}
	for _, sql := range cases {
		s := stmt(t, sql)
		table, _ := s.WriteTable()
		plan := cm.Plan(s, optimizer.NewConfiguration())
		if len(plan.Paths) == 0 {
			t.Fatalf("%s: empty plan", sql)
		}
		est := plan.Paths[0].Rows
		actual, err := CountMatching(d, table, s.WritePreds())
		if err != nil {
			t.Fatal(err)
		}
		// Histogram estimates on independent range predicates: allow 2x
		// relative error plus a small absolute slack for tiny counts.
		lo, hi := float64(actual)/2-20, float64(actual)*2+20
		if est < lo || est > hi {
			t.Errorf("%s: estimated %0.f qualifying rows, executor counts %d", sql, est, actual)
		}
	}

	// And the executor applies exactly the rows it counts: run one of each on
	// a scratch database.
	scratch := freshDB()
	u := stmt(t, cases[0]).Update
	wantU, _ := CountMatching(scratch, "lineitem", u.Preds)
	if n, err := RunUpdate(scratch, u); err != nil || n != wantU {
		t.Fatalf("RunUpdate applied %d rows (err=%v), counted %d", n, err, wantU)
	}
	del := stmt(t, cases[4]).Delete
	wantD, _ := CountMatching(scratch, "lineitem", del.Preds)
	if n, err := RunDelete(scratch, del); err != nil || n != wantD {
		t.Fatalf("RunDelete removed %d rows (err=%v), counted %d", n, err, wantD)
	}
}
