package index

import (
	"sort"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

var (
	tpchOnce sync.Once
	tpchDB   *catalog.Database
)

func tpch() *catalog.Database {
	tpchOnce.Do(func() {
		tpchDB = datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 1})
	})
	return tpchDB
}

func TestDefColumnsDedup(t *testing.T) {
	d := &Def{Table: "lineitem", KeyCols: []string{"l_shipdate", "l_suppkey"}, IncludeCols: []string{"l_suppkey", "l_discount"}}
	cols := d.Columns()
	want := []string{"l_shipdate", "l_suppkey", "l_discount"}
	if len(cols) != len(want) {
		t.Fatalf("cols=%v want %v", cols, want)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols=%v want %v", cols, want)
		}
	}
}

func TestDefIDDistinguishesVariants(t *testing.T) {
	a := &Def{Table: "t", KeyCols: []string{"a"}}
	b := a.WithMethod(compress.Page)
	if a.ID() == b.ID() {
		t.Fatal("compressed variant must have different ID")
	}
	if a.StructureID() != b.StructureID() {
		t.Fatalf("variants must share StructureID: %q vs %q", a.StructureID(), b.StructureID())
	}
	cl := &Def{Table: "t", KeyCols: []string{"a"}, Clustered: true}
	if cl.ID() == a.ID() {
		t.Fatal("clustered flag must change ID")
	}
	// Include column order must not matter.
	x := &Def{Table: "t", KeyCols: []string{"a"}, IncludeCols: []string{"b", "c"}}
	y := &Def{Table: "t", KeyCols: []string{"a"}, IncludeCols: []string{"c", "b"}}
	if x.ID() != y.ID() {
		t.Fatal("include order must not change ID")
	}
	// Key column order must matter.
	k1 := &Def{Table: "t", KeyCols: []string{"a", "b"}}
	k2 := &Def{Table: "t", KeyCols: []string{"b", "a"}}
	if k1.ID() == k2.ID() {
		t.Fatal("key order must change ID")
	}
}

func TestBuildSecondaryIndexSorted(t *testing.T) {
	db := tpch()
	d := &Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_discount"}}
	schema, rows, err := MaterializeRows(db, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(db.MustTable("lineitem").Rows) {
		t.Fatalf("row count %d", len(rows))
	}
	if !schema.Has("__rid") {
		t.Fatal("secondary index must carry a RID column")
	}
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i][0].Compare(rows[j][0]) < 0 }) {
		t.Fatal("rows must be sorted by key")
	}
}

func TestBuildClusteredIndexHasAllColumns(t *testing.T) {
	db := tpch()
	d := &Def{Table: "orders", KeyCols: []string{"o_orderdate"}, Clustered: true}
	schema, rows, err := MaterializeRows(db, d)
	if err != nil {
		t.Fatal(err)
	}
	ot := db.MustTable("orders")
	if len(schema.Columns) != len(ot.Schema.Columns) {
		t.Fatalf("clustered index has %d cols, table has %d", len(schema.Columns), len(ot.Schema.Columns))
	}
	if schema.Columns[0].Name != "o_orderdate" {
		t.Fatal("clustered key must lead")
	}
	if schema.Has("__rid") {
		t.Fatal("clustered index must not carry a RID")
	}
	if len(rows) != len(ot.Rows) {
		t.Fatal("clustered index must contain every row")
	}
}

func TestBuildPartialIndexFilters(t *testing.T) {
	db := tpch()
	full := &Def{Table: "lineitem", KeyCols: []string{"l_suppkey"}}
	part := &Def{Table: "lineitem", KeyCols: []string{"l_suppkey"},
		Where: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}}
	_, fullRows, err := MaterializeRows(db, full)
	if err != nil {
		t.Fatal(err)
	}
	_, partRows, err := MaterializeRows(db, part)
	if err != nil {
		t.Fatal(err)
	}
	if len(partRows) == 0 || len(partRows) >= len(fullRows) {
		t.Fatalf("partial index rows %d vs full %d", len(partRows), len(fullRows))
	}
}

func TestBuildUnknownTableOrColumn(t *testing.T) {
	db := tpch()
	if _, err := Build(db, &Def{Table: "ghost", KeyCols: []string{"x"}}); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := Build(db, &Def{Table: "orders", KeyCols: []string{"ghost"}}); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestBuildMeasuredSizes(t *testing.T) {
	db := tpch()
	base := &Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_returnflag", "l_linestatus", "l_shipmode"}}
	unc, err := Build(db, base)
	if err != nil {
		t.Fatal(err)
	}
	if unc.CF() != 1 {
		t.Fatalf("uncompressed CF=%v", unc.CF())
	}
	for _, m := range []compress.Method{compress.Row, compress.Page} {
		c, err := Build(db, base.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if c.UncompressedBytes != unc.UncompressedBytes {
			t.Fatalf("%s: uncompressed baseline changed", m)
		}
		if c.Bytes >= unc.Bytes {
			t.Errorf("%s: no compression achieved (%d vs %d)", m, c.Bytes, unc.Bytes)
		}
		if c.Pages != storage.PagesForBytes(c.Bytes) {
			t.Errorf("%s: pages inconsistent", m)
		}
	}
}

func TestJoinRowsFactDim(t *testing.T) {
	db := tpch()
	joins := []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}}
	schema, rows, err := JoinRows(db, "lineitem", joins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(db.MustTable("lineitem").Rows) {
		t.Fatalf("FK join must preserve fact rows: %d", len(rows))
	}
	if !schema.Has("lineitem_l_suppkey") || !schema.Has("supplier_s_name") {
		t.Fatalf("joined schema missing qualified columns: %v", schema.Names())
	}
}

func TestJoinRowsSnowflake(t *testing.T) {
	db := tpch()
	joins := []workload.Join{
		{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"},
		{LeftTable: "supplier", LeftCol: "s_nationkey", RightTable: "nation", RightCol: "n_nationkey"},
	}
	schema, rows, err := JoinRows(db, "lineitem", joins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(db.MustTable("lineitem").Rows) {
		t.Fatalf("snowflake join lost rows: %d", len(rows))
	}
	if !schema.Has("nation_n_name") {
		t.Fatal("snowflake dimension columns missing")
	}
}

func TestMaterializeMVGroupBy(t *testing.T) {
	db := tpch()
	mv := &MVDef{
		Name: "mv_ship",
		Fact: "lineitem",
		GroupBy: []workload.ColRef{
			{Table: "lineitem", Col: "l_shipmode"},
		},
		Aggs: []workload.Aggregate{
			{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}},
		},
	}
	schema, rows, err := MaterializeMV(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 7 {
		t.Fatalf("shipmode groups=%d want <=7", len(rows))
	}
	if !schema.Has("__count") {
		t.Fatal("grouped MV must carry hidden __count")
	}
	// Counts must sum to fact rows.
	ci := schema.ColIndex("__count")
	var total int64
	for _, r := range rows {
		total += r[ci].Int
	}
	if total != int64(len(db.MustTable("lineitem").Rows)) {
		t.Fatalf("counts sum %d != fact rows", total)
	}
}

func TestMaterializeMVWithJoinAndWhere(t *testing.T) {
	db := tpch()
	mv := &MVDef{
		Name:  "mv_nation_rev",
		Fact:  "lineitem",
		Joins: []workload.Join{{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"}},
		Where: []workload.Predicate{{Table: "lineitem", Col: "l_quantity", Op: workload.OpGe, Lo: storage.IntVal(25)}},
		GroupBy: []workload.ColRef{
			{Table: "supplier", Col: "s_nationkey"},
		},
		Aggs: []workload.Aggregate{
			{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}},
			{Func: workload.AggCount},
		},
	}
	schema, rows, err := MaterializeMV(db, mv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 25 {
		t.Fatalf("nation groups=%d want <=25", len(rows))
	}
	if !schema.Has("sum_lineitem_l_extendedprice") || !schema.Has("count_star") {
		t.Fatalf("aggregate columns missing: %v", schema.Names())
	}
}

func TestMVIndexBuild(t *testing.T) {
	db := tpch()
	mv := &MVDef{
		Name:    "mv_day",
		Fact:    "orders",
		GroupBy: []workload.ColRef{{Table: "orders", Col: "o_orderdate"}},
		Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "orders", Col: "o_totalprice"}}},
	}
	d := &Def{Table: "mv_day", KeyCols: []string{"orders_o_orderdate"}, MV: mv, Method: compress.Row}
	phys, err := Build(db, d)
	if err != nil {
		t.Fatal(err)
	}
	if phys.Rows == 0 {
		t.Fatal("MV index has no rows")
	}
	nd := db.MustTable("orders").DistinctPrefix([]string{"o_orderdate"})
	if phys.Rows != nd {
		t.Fatalf("MV rows=%d want distinct dates=%d", phys.Rows, nd)
	}
}

func TestMVFingerprintStable(t *testing.T) {
	mv1 := &MVDef{Fact: "lineitem", GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}}}
	mv2 := &MVDef{Fact: "LINEITEM", GroupBy: []workload.ColRef{{Table: "lineitem", Col: "L_SHIPMODE"}}}
	if mv1.Fingerprint() != mv2.Fingerprint() {
		t.Fatal("fingerprint must be case-insensitive")
	}
	mv3 := &MVDef{Fact: "lineitem", GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_returnflag"}}}
	if mv1.Fingerprint() == mv3.Fingerprint() {
		t.Fatal("different group-by must change fingerprint")
	}
}

func TestFilterRowsResolvesQualifiedAndBare(t *testing.T) {
	db := tpch()
	schema, rows, err := JoinRows(db, "lineitem", nil)
	if err != nil {
		t.Fatal(err)
	}
	qualified, err := FilterRows(schema, rows, []workload.Predicate{{Table: "lineitem", Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(5)}})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := FilterRows(schema, rows, []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(qualified) != len(bare) {
		t.Fatalf("qualified %d != bare %d", len(qualified), len(bare))
	}
	if len(qualified) == 0 || len(qualified) >= len(rows) {
		t.Fatalf("filter had no effect: %d of %d", len(qualified), len(rows))
	}
	if _, err := FilterRows(schema, rows, []workload.Predicate{{Col: "ghost", Op: workload.OpEq, Lo: storage.IntVal(1)}}); err == nil {
		t.Fatal("unknown predicate column must error")
	}
}

// TestJoinerKeyKinds pins that the two hash forms behind a join step agree:
// an integer key hashes as int64, a string key through the generic ValueKey,
// and in both a NULL probe, an unmatched probe and a probe of another kind
// find nothing while the last of two dimension rows sharing a key wins.
func TestJoinerKeyKinds(t *testing.T) {
	dim := func(name string, kind storage.Kind, keys ...storage.Value) *catalog.Table {
		tb := &catalog.Table{Name: name, Schema: storage.NewSchema(
			storage.Column{Name: "k", Kind: kind, Nullable: true},
			storage.Column{Name: "payload", Kind: storage.KindInt},
		)}
		for i, k := range keys {
			tb.Rows = append(tb.Rows, storage.Row{k, storage.IntVal(int64(i))})
		}
		return tb
	}
	db := catalog.NewDatabase("joiner")
	db.AddTable(dim("di", storage.KindInt, storage.IntVal(1), storage.IntVal(2), storage.IntVal(2)))
	db.AddTable(dim("ds", storage.KindString, storage.StringVal("a"), storage.StringVal("b"), storage.StringVal("b")))
	fact := &catalog.Table{Name: "f", Schema: storage.NewSchema(
		storage.Column{Name: "ik", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "sk", Kind: storage.KindString, Nullable: true},
	)}
	db.AddTable(fact)
	probe := func(join workload.Join, r storage.Row) (storage.Row, bool) {
		t.Helper()
		jn, err := NewJoiner(db, "f", []workload.Join{join})
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Bind(fact.Schema, nil, nil); err != nil {
			t.Fatal(err)
		}
		return jn.Widen(r)
	}
	onInt := workload.Join{LeftTable: "f", LeftCol: "ik", RightTable: "di", RightCol: "k"}
	onStr := workload.Join{LeftTable: "f", LeftCol: "sk", RightTable: "ds", RightCol: "k"}
	cases := []struct {
		name    string
		join    workload.Join
		row     storage.Row
		payload int64 // of the matched dimension row, -1 for no match
	}{
		{"int match", onInt, storage.Row{storage.IntVal(1), storage.StringVal("a")}, 0},
		{"int duplicate key: last wins", onInt, storage.Row{storage.IntVal(2), storage.StringVal("a")}, 2},
		{"int no match", onInt, storage.Row{storage.IntVal(9), storage.StringVal("a")}, -1},
		{"int NULL probe", onInt, storage.Row{storage.NullValue(storage.KindInt), storage.StringVal("a")}, -1},
		{"date probe of an int key", onInt, storage.Row{storage.DateVal(1), storage.StringVal("a")}, -1},
		{"string match", onStr, storage.Row{storage.IntVal(1), storage.StringVal("a")}, 0},
		{"string duplicate key: last wins", onStr, storage.Row{storage.IntVal(1), storage.StringVal("b")}, 2},
		{"string no match", onStr, storage.Row{storage.IntVal(1), storage.StringVal("z")}, -1},
		{"string NULL probe", onStr, storage.Row{storage.IntVal(1), storage.NullValue(storage.KindString)}, -1},
	}
	for _, c := range cases {
		wide, ok := probe(c.join, c.row)
		if ok != (c.payload >= 0) {
			t.Fatalf("%s: matched=%v", c.name, ok)
		}
		if ok && wide[3].Int != c.payload {
			t.Fatalf("%s: joined dimension row %d, want %d", c.name, wide[3].Int, c.payload)
		}
	}
	// A NULL among an integer dimension's keys takes the generic form, where a
	// NULL probe of the same kind matches it as it always has.
	db.AddTable(dim("dn", storage.KindInt, storage.IntVal(1), storage.NullValue(storage.KindInt)))
	onNull := workload.Join{LeftTable: "f", LeftCol: "ik", RightTable: "dn", RightCol: "k"}
	if wide, ok := probe(onNull, storage.Row{storage.NullValue(storage.KindInt), storage.StringVal("a")}); !ok || wide[3].Int != 1 {
		t.Fatalf("NULL key: matched=%v row %v", ok, wide)
	}
	if wide, ok := probe(onNull, storage.Row{storage.IntVal(1), storage.StringVal("a")}); !ok || wide[3].Int != 0 {
		t.Fatalf("int key beside a NULL key: matched=%v row %v", ok, wide)
	}
}
