package index

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// scribbleSlab overwrites a leaf slab with values no build produces.
func scribbleSlab(vals []storage.Value, rows []storage.Row) {
	for i := range vals {
		vals[i] = storage.Value{Kind: storage.KindString, Str: "\x00leaf slab read after its build"}
	}
	clear(rows)
}

// perRowInts returns the path of the first []int32 reachable from v that has
// one entry per leaf row — what a per-row code array looks like — or "" when
// there is none.
func perRowInts(v reflect.Value, rows int, path string) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return perRowInts(v.Elem(), rows, path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := perRowInts(v.Field(i), rows, path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Type().Elem().Kind() == reflect.Int32 && v.Len() == rows {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := perRowInts(v.Index(i), rows, fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := perRowInts(it.Value(), rows, fmt.Sprintf("%s[%v]", path, it.Key())); p != "" {
				return p
			}
		}
	}
	return ""
}

// slabDesign is a design over every build shape: clustered and secondary,
// mixed per-column methods with GDICT columns, partial, heap and MV.
func slabDesign(db *catalog.Database) []*Def {
	if db.Table("sales") != nil {
		return []*Def{
			{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
				ColMethods: map[string]compress.Method{"state": compress.GlobalDict, "channel": compress.RLE}},
			{Table: "sales", KeyCols: []string{"state", "qty"}, IncludeCols: []string{"price"}, Method: compress.Page,
				ColMethods: map[string]compress.Method{"price": compress.GlobalDict}},
			{Table: "customers", KeyCols: []string{"custstate"}, IncludeCols: []string{"loyalty"}, Method: compress.Row},
			{Table: "products", KeyCols: []string{"category", "brand"}, Method: compress.RLE},
			{Table: "products", Clustered: true, Method: compress.GlobalDict},
		}
	}
	return []*Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page,
			ColMethods: map[string]compress.Method{"l_shipmode": compress.GlobalDict, "l_linestatus": compress.RLE}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.Row,
			ColMethods: map[string]compress.Method{"l_extendedprice": compress.GlobalDict}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}, Method: compress.GlobalDict},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.None},
		{Table: "lineitem", KeyCols: []string{"l_discount"},
			Where: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(5)}}, Method: compress.Row},
		{Table: "nation", Clustered: true, Method: compress.Row},
		{Table: "mv_rev", KeyCols: []string{"lineitem_l_shipmode"}, Method: compress.Row, MV: &MVDef{
			Name:    "mv_rev",
			Fact:    "lineitem",
			GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
		}},
	}
}

// rewrite applies an UPDATE (set is non-nil) or a DELETE to the table's rows
// that match, copying every row it changes.
func rewrite(t *catalog.Table, match func(storage.Row) bool, set func(storage.Row)) {
	if set == nil {
		t.Rows = slices.DeleteFunc(slices.Clone(t.Rows), match)
	} else {
		t.Rows = slices.Clone(t.Rows)
		for i, r := range t.Rows {
			if match(r) {
				t.Rows[i] = slices.Clone(r)
				set(t.Rows[i])
			}
		}
	}
	t.InvalidateStats()
}

// TestPoisonedSlabsMatchStandaloneBuilds runs the build fan-out with every
// leaf slab scribbled the moment a build gives it back for the next one, and
// holds each segment to a build over leaf rows nobody recycles: same pages
// byte for byte, same low keys and leaf statistics, same codec state, and the
// leaf rows decode back. A segment, low key or codec that kept leaf-row memory
// past its build fails here deterministically rather than whenever a slab
// happens to be reused. Each design is built in memory and spilled to disk,
// first over the generated rows and again after an UPDATE and a DELETE. The
// codec is the segment's decode state for as long as the segment lives, so it
// must hold no per-row array — where the build's GDICT codes would be.
func TestPoisonedSlabsMatchStandaloneBuilds(t *testing.T) {
	poisonRecycledSlab = scribbleSlab
	t.Cleanup(func() { poisonRecycledSlab = nil })
	tpch := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 5})
	sales := datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 7})
	col := func(db *catalog.Database, table, c string) (*catalog.Table, int) {
		tbl := db.MustTable(table)
		return tbl, tbl.Schema.ColIndex(c)
	}
	li, shipdate := col(tpch, "lineitem", "l_shipdate")
	_, price := col(tpch, "lineitem", "l_extendedprice")
	_, qty := col(tpch, "lineitem", "l_quantity")
	sf, sqty := col(sales, "sales", "qty")
	_, sprice := col(sales, "sales", "price")
	for _, c := range []struct {
		name   string
		db     *catalog.Database
		writes []func()
	}{
		{"tpch", tpch, []func(){
			func() {
				rewrite(li, func(r storage.Row) bool { return r[shipdate].Int >= 9700 && r[shipdate].Int <= 9790 },
					func(r storage.Row) { r[price] = storage.FloatVal(1) })
			},
			func() { rewrite(li, func(r storage.Row) bool { return r[qty].Int <= 5 }, nil) },
		}},
		{"sales", sales, []func(){
			func() {
				rewrite(sf, func(r storage.Row) bool { return r[sqty].Int >= 8 }, func(r storage.Row) { r[sprice] = storage.FloatVal(1) })
			},
			func() { rewrite(sf, func(r storage.Row) bool { return r[sqty].Int <= 2 }, nil) },
		}},
	} {
		defs := slabDesign(c.db)
		for step := 0; step <= len(c.writes); step++ {
			if step > 0 {
				c.writes[step-1]()
			}
			for _, disk := range []bool{false, true} {
				label := fmt.Sprintf("%s after %d writes, disk-backed %v", c.name, step, disk)
				pool := bufferpool.New(256 << 10)
				dir := t.TempDir()
				got, err := BuildSegments(c.db, defs, func(i int, si *SegmentIndex) error {
					if !disk {
						return nil
					}
					return si.Seg.Spill(filepath.Join(dir, fmt.Sprint(i)), pool)
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i, d := range defs {
					assertSameSegment(t, fmt.Sprintf("%s: %s", label, d), c.db, d, got[i])
				}
				for _, si := range got {
					si.Seg.CloseBacking()
				}
			}
		}
	}
}

// assertSameSegment holds a fan-out build of d to one over leaf rows the
// caller owns.
func assertSameSegment(t *testing.T, label string, db *catalog.Database, d *Def, got *SegmentIndex) {
	t.Helper()
	schema, rows, err := MaterializeRows(db, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := BuildSegmentOver(schema, rows, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Seg.NumPages() != want.Seg.NumPages() {
		t.Fatalf("%s: %d pages, want %d", label, got.Seg.NumPages(), want.Seg.NumPages())
	}
	for p := 0; p < got.Seg.NumPages(); p++ {
		if got.Seg.PageRows(p) != want.Seg.PageRows(p) {
			t.Fatalf("%s: page %d holds %d rows, want %d", label, p, got.Seg.PageRows(p), want.Seg.PageRows(p))
		}
		g, release, err := got.Seg.FetchPage(p, nil)
		if err != nil {
			t.Fatalf("%s: page %d: %v", label, p, err)
		}
		same := bytes.Equal(g, want.Seg.Page(p).Payload)
		release()
		if !same {
			t.Fatalf("%s: page %d payload differs", label, p)
		}
	}
	gs, ws := *got, *want
	gs.Seg, ws.Seg = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: low keys or leaf statistics differ", label)
	}
	if !reflect.DeepEqual(got.Seg.Codec, want.Seg.Codec) {
		t.Fatalf("%s: codec state (design vector or dictionaries) differs", label)
	}
	decoded := scanAll(t, got.Seg)
	if len(decoded) != len(rows) {
		t.Fatalf("%s: %d rows decoded, want %d", label, len(decoded), len(rows))
	}
	for i := range decoded {
		if !bytes.Equal(storage.EncodeRow(schema, decoded[i], nil), storage.EncodeRow(schema, rows[i], nil)) {
			t.Fatalf("%s: row %d decodes differently", label, i)
		}
	}
	if path := perRowInts(reflect.ValueOf(got.Seg.Codec), len(rows), "codec"); len(rows) > 0 && path != "" {
		t.Fatalf("%s: the built codec holds a per-row array at %s", label, path)
	}
}
