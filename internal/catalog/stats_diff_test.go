package catalog_test

import (
	"fmt"
	"reflect"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/storage"
)

// edgeTable holds the column shapes the bundled generators do not guarantee:
// all-NULL, single-value, all-distinct, NULL-heavy, more distinct values than
// MCVLimit with ties in the counts around the cut, few distinct values with
// no skew at all, and values of another kind than the column's (which the
// builder sorts as Values, not as bare keys).
func edgeTable() *catalog.Table {
	sch := storage.NewSchema(
		storage.Column{Name: "allnull", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "single", Kind: storage.KindString},
		storage.Column{Name: "distinct", Kind: storage.KindInt},
		storage.Column{Name: "sparse", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "tied", Kind: storage.KindString, FixedWidth: 4},
		storage.Column{Name: "flat", Kind: storage.KindDate},
		storage.Column{Name: "uniform", Kind: storage.KindInt},
		storage.Column{Name: "mixed", Kind: storage.KindInt},
	)
	rows := make([]storage.Row, 600)
	for i := range rows {
		sparse := storage.NullValue(storage.KindFloat)
		if i%7 == 0 {
			sparse = storage.FloatVal(float64(i%21) / 4)
		}
		// Twelve values; four of them share the count at the MCVLimit cut.
		tied := i % 12
		if i >= 480 {
			tied = i % 4
		}
		mixed := storage.IntVal(int64(i % 5))
		if i%2 == 1 {
			mixed = storage.DateVal(int64(100 + i%5))
		}
		rows[i] = storage.Row{
			storage.NullValue(storage.KindInt),
			storage.StringVal("only"),
			storage.IntVal(int64(1000 - i)),
			sparse,
			storage.StringVal(fmt.Sprintf("t%02d", tied)),
			storage.DateVal(int64(9000 + i%3)),
			storage.IntVal(int64(i % 20)),
			mixed,
		}
	}
	return &catalog.Table{Name: "edge", Schema: sch, Rows: rows}
}

// TestBuildStatsMatchesReference holds the one-sort-per-column builder to
// the original, field for field, over every TPC-H and Sales table and the
// edge-case columns, at the default and at a tiny bucket count.
func TestBuildStatsMatchesReference(t *testing.T) {
	tables := []*catalog.Table{edgeTable()}
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 3}).Tables()...)
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Zipf: 1.2, Seed: 4}).Tables()...)
	tables = append(tables, datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 5}).Tables()...)
	for _, tab := range tables {
		for _, buckets := range []int{catalog.DefaultHistogramBuckets, 3} {
			got, want := catalog.BuildStats(tab, buckets), catalog.ReferenceBuildStats(tab, buckets)
			if got.RowCount != want.RowCount || len(got.Cols) != len(want.Cols) {
				t.Fatalf("%s: %d rows / %d columns, reference %d / %d", tab.Name, got.RowCount, len(got.Cols), want.RowCount, len(want.Cols))
			}
			for name, w := range want.Cols {
				if g := got.Cols[name]; !reflect.DeepEqual(g, w) {
					t.Errorf("%s.%s (%d buckets):\n got  %+v\n want %+v", tab.Name, name, buckets, g, w)
				}
			}
		}
	}
}
