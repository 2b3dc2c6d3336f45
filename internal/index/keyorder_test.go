package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// referenceLeafRows is the comparator build that keyOrder replaced, kept as
// the specification of leaf-row order: filter, project, append the RID, then
// sort a permutation under Value.Compare with the position as tie-break.
func referenceLeafRows(t *testing.T, baseSchema *storage.Schema, baseRows []storage.Row, d *Def) (*storage.Schema, []storage.Row) {
	rows, err := FilterRows(baseSchema, baseRows, d.Where)
	if err != nil {
		t.Fatal(err)
	}
	cols := d.Columns()
	if d.Clustered {
		cols = reorderLeading(baseSchema.Names(), d.KeyCols)
	}
	schema := baseSchema.Project(cols)
	addRID := !d.Clustered
	if addRID {
		schema = storage.NewSchema(append(append([]storage.Column{}, schema.Columns...), storage.Column{Name: "__rid", Kind: storage.KindInt})...)
	}
	nKeys := len(d.KeyCols)
	if nKeys == 0 && !addRID {
		return schema, rows
	}
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		row := make(storage.Row, 0, len(schema.Columns))
		for _, c := range cols {
			row = append(row, r[baseSchema.ColIndex(c)])
		}
		if addRID {
			row = append(row, storage.IntVal(int64(i)))
		}
		out[i] = row
	}
	order := make([]int32, len(out))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		for k := 0; k < nKeys; k++ {
			if c := out[a][k].Compare(out[b][k]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]storage.Row, len(out))
	for i, at := range order {
		sorted[i] = out[at]
	}
	return schema, sorted
}

// sameValue is bit-level equality: it tells −0.0 from +0.0.
func sameValue(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) && a.Str == b.Str
}

// keyOrderTable generates n rows over one column of every kind plus the two
// shapes only the comparator can order: a float column holding NaNs and an
// int column holding floats and strings. Small domains make duplicates heavy;
// every column but the all-NULL one is a tenth NULL. The integer columns
// cover both rank paths: narrow spans (i, d, negative neg, all-NULL null,
// one repeated value) are counted, while spans that overflow int64 (ext,
// extd: both MinInt64 and MaxInt64) or are sparse and wide (sparse) are
// sorted.
func keyOrderTable(rng *rand.Rand, n int) *catalog.Table {
	schema := storage.NewSchema(
		storage.Column{Name: "i", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "f", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "s", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "d", Kind: storage.KindDate, Nullable: true},
		storage.Column{Name: "nan", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "mixed", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "ext", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "extd", Kind: storage.KindDate, Nullable: true},
		storage.Column{Name: "sparse", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "neg", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "null", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "one", Kind: storage.KindDate, Nullable: true},
	)
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1}
	t := &catalog.Table{Name: "t", Schema: schema}
	for r := 0; r < n; r++ {
		row := storage.Row{
			storage.IntVal(int64(rng.Intn(7) - 3)),
			storage.FloatVal([]float64{math.Copysign(0, -1), 0, 1.5, -2.25, 1e-300}[rng.Intn(5)]),
			storage.StringVal([]string{"", "a", "ab", "b", "B", "ä"}[rng.Intn(6)]),
			storage.DateVal(int64(9000 + rng.Intn(5))),
			storage.FloatVal([]float64{math.NaN(), 1, -1, 0}[rng.Intn(4)]),
			[]storage.Value{storage.IntVal(2), storage.IntVal(-1), storage.FloatVal(0.5), storage.StringVal("x")}[rng.Intn(4)],
			storage.IntVal(extremes[rng.Intn(len(extremes))]),
			storage.DateVal(extremes[rng.Intn(len(extremes))]),
			storage.IntVal((rng.Int63n(2001) - 1000) * 1_000_003),
			storage.IntVal(int64(-5000 - rng.Intn(n+1))),
			storage.NullValue(storage.KindInt),
			storage.DateVal(-7),
		}
		for c := range row {
			if rng.Intn(10) == 0 {
				row[c] = storage.NullValue(schema.Columns[c].Kind)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TestKeyOrderMatchesReference is a randomized differential of the rank-based
// key order against the comparator sort it replaced, over 1–3 key columns of
// every kind (clean columns through ranks — counted or sorted, see
// keyOrderTable — NaN and mixed-kind columns through the comparator
// fallback), partial and clustered shapes, and empty and
// single-row inputs — both as a batch of one (MaterializeOver, SampleCF's
// path) and through one shared build batch per table.
func TestKeyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := []string{"i", "f", "s", "d", "nan", "mixed", "ext", "extd", "sparse", "neg", "null", "one"}
	for trial := 0; trial < 150; trial++ {
		n := []int{0, 1, 2, 40, 400}[trial%5]
		tbl := keyOrderTable(rng, n)
		db := catalog.NewDatabase("keyorder")
		db.AddTable(tbl)
		batch := &buildBatch{db: db}
		for _, c := range names {
			ci := tbl.Schema.ColIndex(c)
			kind := tbl.Schema.Columns[ci].Kind
			if fallback := rankColumn(tbl.Rows, ci, kind) == nil; fallback && (c != "nan" && c != "mixed") {
				t.Fatalf("trial %d: clean column %s took the comparator fallback", trial, c)
			}
			if kind != storage.KindInt && kind != storage.KindDate || c == "mixed" {
				continue
			}
			// Both rank paths: counted where the span allows, equal to sorted.
			counted, ok := rankDense(tbl.Rows, ci, kind)
			if wantCounted := c != "ext" && c != "extd" && c != "sparse"; n >= 40 && ok != wantCounted {
				t.Fatalf("trial %d: column %s counted = %v, want %v", trial, c, ok, wantCounted)
			}
			if sorted := rankBy(tbl.Rows, ci, kind, func(v storage.Value) int64 { return v.Int }); ok && !slices.Equal(counted, sorted) {
				t.Fatalf("trial %d: column %s counted ranks %v, sorted %v", trial, c, counted, sorted)
			}
		}
		for j := 0; j < 6; j++ {
			perm := rng.Perm(len(names))
			d := &Def{Table: "t", Clustered: rng.Intn(4) == 0}
			for _, p := range perm[:1+rng.Intn(3)] {
				d.KeyCols = append(d.KeyCols, names[p])
			}
			if rng.Intn(2) == 0 {
				d.IncludeCols = []string{names[perm[len(perm)-1]]}
			}
			if rng.Intn(3) == 0 {
				d.Where = []workload.Predicate{{Col: "i", Op: workload.OpLe, Lo: storage.IntVal(int64(rng.Intn(5) - 2))}}
			}
			wantSchema, want := referenceLeafRows(t, tbl.Schema, tbl.Rows, d)
			for _, path := range []string{"batch of one", "shared batch"} {
				var schema *storage.Schema
				var got []storage.Row
				var err error
				if path == "batch of one" {
					schema, got, err = MaterializeOver(tbl.Schema, tbl.Rows, d)
				} else {
					var leaf leafSlab
					schema, leaf, err = batch.leafRows(d)
					got = leaf.rows
				}
				label := fmt.Sprintf("trial %d, %s, %s", trial, path, d)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if fmt.Sprint(schema.Names()) != fmt.Sprint(wantSchema.Names()) {
					t.Fatalf("%s: schema %v, want %v", label, schema.Names(), wantSchema.Names())
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
				}
				for r := range got {
					if !slices.EqualFunc(got[r], want[r], sameValue) {
						t.Fatalf("%s: row %d is %v, want %v", label, r, got[r], want[r])
					}
				}
			}
		}
	}
}
