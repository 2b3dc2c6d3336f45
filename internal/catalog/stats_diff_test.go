package catalog_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/storage"
	"cadb/internal/workload"
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

// TestBuildStatsMatchesReference holds the two-tier builder to the original,
// field for field, over every TPC-H and Sales table and the edge-case
// columns, at the default and at a tiny bucket count. Each column is read
// through Col, which sorts it on first use: four goroutines request every
// column in their own shuffled order, so each sorted tier is built by
// whichever request comes first and read by the others.
func TestBuildStatsMatchesReference(t *testing.T) {
	tables := []*catalog.Table{edgeTable()}
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 3}).Tables()...)
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Zipf: 1.2, Seed: 4}).Tables()...)
	tables = append(tables, datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 5}).Tables()...)
	rng := rand.New(rand.NewSource(1))
	for _, tab := range tables {
		for _, buckets := range []int{catalog.DefaultHistogramBuckets, 3} {
			got, want := catalog.BuildStats(tab, buckets), catalog.ReferenceBuildStats(tab, buckets)
			if got.RowCount != want.RowCount {
				t.Fatalf("%s: %d rows, reference %d", tab.Name, got.RowCount, want.RowCount)
			}
			names := tab.Schema.Names()
			var wg sync.WaitGroup
			for range 4 {
				order := rng.Perm(len(names))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						name := names[i]
						if g, w := got.Col(name), want.Col(name); !reflect.DeepEqual(g, w) {
							t.Errorf("%s.%s (%d buckets):\n got  %+v\n want %+v", tab.Name, name, buckets, g, w)
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestStatsFrozenAfterWrites: a snapshot's statistics describe the rows of
// the snapshot. A column first sorted after an UPDATE (which replaces rows)
// and a DELETE (which compacts the live row slice in place) still equals the
// reference statistics of the rows before the writes, its first tier
// included.
func TestStatsFrozenAfterWrites(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 6})
	li := db.MustTable("lineitem")
	want := catalog.ReferenceBuildStats(&catalog.Table{Name: li.Name, Schema: li.Schema, Rows: slices.Clone(li.Rows)}, catalog.DefaultHistogramBuckets)
	snap := db.Snapshot()
	got := snap.MustTable("lineitem").Stats()

	n, err := exec.RunUpdate(db, &workload.Update{Table: "lineitem",
		Set:   []workload.Assignment{{Col: "l_discount", Value: storage.FloatVal(0.5)}},
		Preds: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}}})
	if err != nil || n == 0 {
		t.Fatalf("UPDATE: %d rows, %v", n, err)
	}
	if n, err = exec.RunDelete(db, &workload.Delete{Table: "lineitem",
		Preds: []workload.Predicate{{Col: "l_quantity", Op: workload.OpGe, Lo: storage.IntVal(40)}}}); err != nil || n == 0 {
		t.Fatalf("DELETE: %d rows, %v", n, err)
	}
	if got.RowCount != want.RowCount {
		t.Fatalf("snapshot RowCount %d, want %d", got.RowCount, want.RowCount)
	}
	for _, name := range li.Schema.Names() {
		if got.Sorted(name) {
			t.Fatalf("%s sorted before its first request", name)
		}
		if g, w := got.Col(name), want.Col(name); !reflect.DeepEqual(g, w) {
			t.Errorf("lineitem.%s after the writes:\n got  %+v\n want %+v", name, g, w)
		}
	}
	if live := li.Stats().Col("l_discount").Max.Float; live != 0.5 {
		t.Fatalf("live l_discount max %v, want the UPDATE's 0.5", live)
	}
}
