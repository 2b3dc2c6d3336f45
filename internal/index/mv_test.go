package index

import (
	"bytes"
	"slices"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// TestAggregatesOverAllNullInput: SUM, AVG and MIN over input that is all
// NULL are NULL, and COUNT(x) is 0 — SQL's answer — as a view row and as a
// grouped result alike: SELECT SUM(x), AVG(x), COUNT(x), MIN(x) over a
// nullable float column holding only NULLs gives [NULL NULL 0 NULL].
func TestAggregatesOverAllNullInput(t *testing.T) {
	db := catalog.NewDatabase("nulls")
	db.AddTable(&catalog.Table{
		Name:   "t",
		Schema: storage.NewSchema(storage.Column{Name: "x", Kind: storage.KindFloat, Nullable: true}),
		Rows: []storage.Row{
			{storage.NullValue(storage.KindFloat)},
			{storage.NullValue(storage.KindFloat)},
		},
	})
	x := workload.ColRef{Col: "x"}
	mv := &MVDef{Name: "v", Fact: "t", Aggs: []workload.Aggregate{
		{Func: workload.AggSum, Col: x}, {Func: workload.AggAvg, Col: x},
		{Func: workload.AggCount, Col: x}, {Func: workload.AggMin, Col: x},
	}}
	schema, rows, err := MaterializeMV(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	want := storage.Row{
		storage.NullValue(storage.KindFloat), storage.NullValue(storage.KindFloat),
		storage.IntVal(0), storage.NullValue(storage.KindFloat), storage.IntVal(2),
	}
	if got := storage.EncodeRow(schema, rows[0], nil); !bytes.Equal(got, storage.EncodeRow(schema, want, nil)) {
		t.Fatalf("SUM, AVG, COUNT, MIN, __count over all-NULL x = %v, want %v", rows[0], want)
	}
}

// TestStreamedViewMatchesJoinFilterGroup: a view's one streaming pass gives
// what joining, filtering and grouping its rows step by step gives — the
// same schema and the same rows in the same order — on the whole fact table
// and on a fact-table sample, with and without joins.
func TestStreamedViewMatchesJoinFilterGroup(t *testing.T) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 2000, Zipf: 0.8, Seed: 3})
	sales := db.MustTable("sales")
	views := []*MVDef{
		{Name: "v1", Fact: "sales",
			Where:   []workload.Predicate{{Col: "discount", Op: workload.OpGe, Lo: storage.FloatVal(0.1)}},
			GroupBy: []workload.ColRef{{Col: "promo"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggCount}, {Func: workload.AggSum, Col: workload.ColRef{Col: "price"}}}},
		{Name: "v2", Fact: "sales",
			Joins:   []workload.Join{{LeftTable: "sales", LeftCol: "custid", RightTable: "customers", RightCol: "custid"}},
			Where:   []workload.Predicate{{Table: "sales", Col: "qty", Op: workload.OpGe, Lo: storage.IntVal(4)}},
			GroupBy: []workload.ColRef{{Table: "customers", Col: "segment"}, {Table: "sales", Col: "channel"}},
			Aggs: []workload.Aggregate{
				{Func: workload.AggAvg, Col: workload.ColRef{Table: "customers", Col: "loyalty"}},
				{Func: workload.AggMax, Col: workload.ColRef{Table: "sales", Col: "orderdate"}},
				{Func: workload.AggSum, Col: workload.ColRef{Table: "customers", Col: "loyalty"}},
			}},
	}
	for _, mv := range views {
		for _, fact := range [][]storage.Row{nil, sales.Rows[:500]} {
			var got, want [][]byte
			var gs *storage.Schema
			var grows []storage.Row
			var err error
			if fact == nil {
				gs, grows, err = MaterializeMV(db, mv)
			} else {
				gs, grows, err = MaterializeMVOver(db, mv, sales.Schema, fact)
			}
			if err != nil {
				t.Fatal(err)
			}
			var ws *storage.Schema
			var wide []storage.Row
			if fact == nil {
				ws, wide, err = JoinRows(db, "sales", mv.Joins)
			} else {
				ws, wide, err = JoinRowsFrom(db, "sales", sales.Schema, fact, mv.Joins)
			}
			if err != nil {
				t.Fatal(err)
			}
			if wide, err = FilterRows(ws, wide, mv.Where); err != nil {
				t.Fatal(err)
			}
			ga, err := NewGroupAcc(ws, mv.GroupBy, mv.Aggs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range wide {
				ga.Add(r)
			}
			schema, rows := ga.Finish()
			if !slices.Equal(gs.Names(), schema.Names()) {
				t.Fatalf("%s: streamed schema %v, stepwise %v", mv.Name, gs.Names(), schema.Names())
			}
			for _, r := range grows {
				got = append(got, storage.EncodeRow(gs, r, nil))
			}
			for _, r := range rows {
				want = append(want, storage.EncodeRow(schema, r, nil))
			}
			if len(got) == 0 || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s (sample %v): streamed %d rows, stepwise %d, or they differ", mv.Name, fact != nil, len(got), len(want))
			}
		}
	}
}

// TestMVSchemaMatchesMaterialized: MVSchema names a view's columns as its
// materialization does, and the tables it reads are its fact table and every
// joined one, even one read for its join key alone.
func TestMVSchemaMatchesMaterialized(t *testing.T) {
	db := datagen.NewSales(datagen.SalesConfig{FactRows: 500, Zipf: 0.8, Seed: 3})
	mv := &MVDef{Name: "v", Fact: "sales",
		Joins: []workload.Join{
			{LeftTable: "sales", LeftCol: "storeid", RightTable: "stores", RightCol: "storeid"},
			{LeftTable: "sales", LeftCol: "prodid", RightTable: "products", RightCol: "prodid"},
		},
		Where:   []workload.Predicate{{Table: "sales", Col: "qty", Op: workload.OpGe, Lo: storage.IntVal(4)}},
		GroupBy: []workload.ColRef{{Table: "stores", Col: "region"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Col: "price"}}, {Func: workload.AggCount}, {Func: workload.AggCount}},
	}
	schema, reads, err := MVSchema(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	built, _, err := MaterializeMV(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(schema.Names(), built.Names()) {
		t.Fatalf("MVSchema %v, materialized %v", schema.Names(), built.Names())
	}
	if want := []string{"stores_region", "sum_price", "count_star", "count_star_2", "__count"}; !slices.Equal(schema.Names(), want) {
		t.Fatalf("view columns %v, want %v", schema.Names(), want)
	}
	if want := []string{"sales", "stores", "products"}; !slices.Equal(reads, want) {
		t.Errorf("view reads tables %v, want %v", reads, want)
	}
	if _, _, err := MVSchema(db, &MVDef{Name: "p", Fact: "sales"}); err == nil {
		t.Error("a join-projection view has no grouped schema, and MVSchema gave one")
	}
}
