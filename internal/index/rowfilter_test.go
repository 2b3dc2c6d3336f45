package index

import (
	"testing"

	"cadb/internal/storage"
	"cadb/internal/workload"
)

// The cases of the by-name predicate evaluator's tests, run through the one
// that replaced it: a WHERE compiled by NewRowFilter and tested by Keep.

func filterSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "a", Kind: storage.KindInt},
		storage.Column{Name: "b", Kind: storage.KindString},
		storage.Column{Name: "d", Kind: storage.KindDate},
		storage.Column{Name: "f", Kind: storage.KindFloat},
	)
}

func filterRow(a int64, b string, d int64, f float64) storage.Row {
	return storage.Row{storage.IntVal(a), storage.StringVal(b), storage.DateVal(d), storage.FloatVal(f)}
}

// keeps compiles one predicate against s and tests it against r.
func keeps(t *testing.T, s *storage.Schema, p workload.Predicate, r storage.Row) bool {
	t.Helper()
	f, err := NewRowFilter(s, []workload.Predicate{p})
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return f.Keep(r)
}

func TestRowFilterMatches(t *testing.T) {
	s := filterSchema()
	r := filterRow(10, "xyz", 100, 2.5)
	cases := []struct {
		p    workload.Predicate
		want bool
	}{
		{workload.Predicate{Col: "a", Op: workload.OpEq, Lo: storage.IntVal(10)}, true},
		{workload.Predicate{Col: "a", Op: workload.OpEq, Lo: storage.IntVal(11)}, false},
		{workload.Predicate{Col: "a", Op: workload.OpNe, Lo: storage.IntVal(11)}, true},
		{workload.Predicate{Col: "a", Op: workload.OpLt, Lo: storage.IntVal(10)}, false},
		{workload.Predicate{Col: "a", Op: workload.OpLe, Lo: storage.IntVal(10)}, true},
		{workload.Predicate{Col: "a", Op: workload.OpGt, Lo: storage.IntVal(9)}, true},
		{workload.Predicate{Col: "a", Op: workload.OpGe, Lo: storage.IntVal(11)}, false},
		{workload.Predicate{Col: "a", Op: workload.OpBetween, Lo: storage.IntVal(5), Hi: storage.IntVal(15)}, true},
		{workload.Predicate{Col: "a", Op: workload.OpBetween, Lo: storage.IntVal(11), Hi: storage.IntVal(15)}, false},
		{workload.Predicate{Col: "b", Op: workload.OpEq, Lo: storage.StringVal("xyz")}, true},
	}
	for i, c := range cases {
		if got := keeps(t, s, c.p, r); got != c.want {
			t.Errorf("case %d (%s): got %v", i, c.p, got)
		}
	}
	// A column the schema does not have is an error, not a predicate that
	// matches nothing.
	missing := workload.Predicate{Col: "missing", Op: workload.OpEq, Lo: storage.IntVal(1)}
	if _, err := NewRowFilter(s, []workload.Predicate{missing}); err == nil {
		t.Errorf("%s compiled against a schema without the column", missing)
	}
}

func TestRowFilterNullNeverMatches(t *testing.T) {
	s := filterSchema()
	r := storage.Row{storage.NullValue(storage.KindInt), storage.StringVal("x"), storage.DateVal(1), storage.FloatVal(1)}
	for _, op := range []workload.CmpOp{workload.OpEq, workload.OpNe, workload.OpLt, workload.OpLe, workload.OpGt, workload.OpGe, workload.OpBetween} {
		p := workload.Predicate{Col: "a", Op: op, Lo: storage.IntVal(0), Hi: storage.IntVal(0)}
		if keeps(t, s, p, r) {
			t.Errorf("NULL matched %s", op)
		}
	}
}

func TestRowFilterCoercion(t *testing.T) {
	s := filterSchema()
	r := filterRow(10, "x", 100, 2.0)
	// Int literal against a float column.
	if !keeps(t, s, workload.Predicate{Col: "f", Op: workload.OpEq, Lo: storage.IntVal(2)}, r) {
		t.Fatal("int literal should coerce to float")
	}
	// Int literal against a date column.
	if !keeps(t, s, workload.Predicate{Col: "d", Op: workload.OpGe, Lo: storage.IntVal(100)}, r) {
		t.Fatal("int literal should coerce to date")
	}
}
