package catalog_test

import (
	"fmt"
	"math"
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
// builder sorts as Values, not as bare keys). Then the integer spans either
// side of the counting sort's bound (4n − 1 is counted, 4n sorted), a span
// that overflows int64, negative integers, a float column holding NaNs (sorted
// as Values), one holding both −0 and +0, and three strings whose runs cross
// bucket bounds.
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
		storage.Column{Name: "span4n1", Kind: storage.KindInt},
		storage.Column{Name: "span4n", Kind: storage.KindDate},
		storage.Column{Name: "extremes", Kind: storage.KindInt},
		storage.Column{Name: "negative", Kind: storage.KindInt},
		storage.Column{Name: "nan", Kind: storage.KindFloat},
		storage.Column{Name: "zeros", Kind: storage.KindFloat},
		storage.Column{Name: "three", Kind: storage.KindString},
	)
	const n = 600
	rows := make([]storage.Row, n)
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
		// Every value twice, from −50 up, but the last row the span's end.
		span4n1, span4n := int64(i%(n/2)*8-50), int64(i%(n/2)*8-50)
		if i == n-1 {
			span4n1, span4n = 4*n-1-50, 4*n-50
		}
		extremes := int64(i % 3)
		switch i % 50 {
		case 0:
			extremes = math.MinInt64
		case 1:
			extremes = math.MaxInt64
		}
		nan := float64(i % 9)
		if i%40 == 3 {
			nan = math.NaN()
		}
		zero := float64(i%4) / 2
		if i%8 == 0 {
			zero = math.Copysign(0, -1)
		}
		three := "b"
		switch {
		case i%7 < 3:
			three = "a"
		case i%7 == 6:
			three = "c"
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
			storage.IntVal(span4n1),
			storage.DateVal(span4n),
			storage.IntVal(extremes),
			storage.IntVal(-int64(i%37) * 3),
			storage.FloatVal(nan),
			storage.FloatVal(zero),
			storage.StringVal(three),
		}
	}
	return &catalog.Table{Name: "edge", Schema: sch, Rows: rows}
}

// sameStats reports whether two columns' statistics are equal field for
// field, where a NaN equals a NaN in the same place.
func sameStats(g, w *catalog.ColStats) bool {
	render := func(cs *catalog.ColStats) string {
		c, h := *cs, catalog.Histogram{}
		if c.Hist != nil {
			h, c.Hist = *c.Hist, nil
		}
		return fmt.Sprintf("%#v %#v", c, h)
	}
	return reflect.DeepEqual(g, w) || render(g) == render(w)
}

// TestBuildStatsMatchesReference holds the two-tier builder to the original,
// field for field, over every TPC-H and Sales table, the edge-case columns
// and an empty table, at the default and at a tiny bucket count, along both
// paths to the sorted tier. First SortColumns alone sorts every column of a
// fresh Stats in one batch. Then both paths race on another: SortColumns
// sorts every column while four goroutines request every column through Col
// in their own shuffled order, so each column is built by whichever comes
// first and read by the others.
func TestBuildStatsMatchesReference(t *testing.T) {
	empty := &catalog.Table{Name: "empty", Schema: edgeTable().Schema}
	tables := []*catalog.Table{edgeTable(), empty}
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 3}).Tables()...)
	tables = append(tables, datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Zipf: 1.2, Seed: 4}).Tables()...)
	tables = append(tables, datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 5}).Tables()...)
	rng := rand.New(rand.NewSource(1))
	for _, tab := range tables {
		names := tab.Schema.Names()
		for _, buckets := range []int{catalog.DefaultHistogramBuckets, 3} {
			want := catalog.ReferenceBuildStats(tab, buckets)
			// batch returns a fresh Stats of the table and the columns of a
			// SortColumns over it, all of them in a shuffled order.
			batch := func() (*catalog.Stats, []catalog.ColumnRef) {
				st := catalog.BuildStats(tab, buckets)
				if st.RowCount != want.RowCount {
					t.Fatalf("%s: %d rows, reference %d", tab.Name, st.RowCount, want.RowCount)
				}
				// SortColumns reaches a Stats through its table.
				bt := &catalog.Table{Name: tab.Name, Schema: tab.Schema, Rows: tab.Rows}
				bt.UseStats(st)
				var refs []catalog.ColumnRef
				for _, i := range rng.Perm(len(names)) {
					refs = append(refs, catalog.ColumnRef{Table: bt, Col: names[i]})
				}
				return st, refs
			}
			check := func(path string, got *catalog.Stats, name string) {
				if g, w := got.Col(name), want.Col(name); !sameStats(g, w) {
					t.Errorf("%s.%s (%d buckets, %s):\n got  %+v\n want %+v", tab.Name, name, buckets, path, g, w)
				}
			}

			alone, refs := batch()
			catalog.SortColumns(2, refs)
			for _, name := range names {
				if !alone.Sorted(name) {
					t.Fatalf("%s.%s not sorted by SortColumns", tab.Name, name)
				}
				check("batch", alone, name)
			}

			raced, refs := batch()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				catalog.SortColumns(2, refs)
			}()
			for range 4 {
				order := rng.Perm(len(names))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						check("raced", raced, names[i])
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
