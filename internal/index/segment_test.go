package index

import (
	"bytes"
	"math"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

func segTestDefs() []*Def {
	return []*Def{
		{Table: "lineitem", KeyCols: []string{"l_orderkey", "l_linenumber"}, Clustered: true, Method: compress.None},
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, IncludeCols: []string{"l_quantity"}, Method: compress.Row},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}, Method: compress.Page},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, Method: compress.Page},
	}
}

// TestSegmentIndexRoundTrip pins that a materialized segment decodes back to
// exactly the leaf rows the index materializer produced, for every codec and
// structure shape (clustered, secondary, MV).
// fullDecode reconstructs every row of a page through a decoder of its own:
// every ordinal, no predicates, no slot filter.
func fullDecode(t testing.TB, seg *storage.Segment, page int) []storage.Row {
	t.Helper()
	payload, release, err := seg.FetchPage(page, nil)
	if err != nil {
		t.Fatalf("fetch of page %d: %v", page, err)
	}
	defer release()
	dec := seg.Codec.NewDecoder(seg.Schema, &storage.DecodeSpec{Needed: seg.Schema.AllOrdinals()})
	dp, err := dec.Decode(payload, seg.PageRows(page), nil)
	if err != nil {
		t.Fatalf("full decode of page %d: %v", page, err)
	}
	return dp.Rows
}

// scanAll full-decodes every page of seg in order.
func scanAll(t testing.TB, seg *storage.Segment) []storage.Row {
	t.Helper()
	var out []storage.Row
	for p := 0; p < seg.NumPages(); p++ {
		out = append(out, fullDecode(t, seg, p)...)
	}
	return out
}

func TestSegmentIndexRoundTrip(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 21})
	defs := segTestDefs()
	defs = append(defs, &Def{
		Table:   "mv_rev",
		KeyCols: []string{"lineitem_l_shipmode"},
		Method:  compress.Row,
		MV: &MVDef{
			Name:    "mv_rev",
			Fact:    "lineitem",
			GroupBy: []workload.ColRef{{Table: "lineitem", Col: "l_shipmode"}},
			Aggs:    []workload.Aggregate{{Func: workload.AggSum, Col: workload.ColRef{Table: "lineitem", Col: "l_extendedprice"}}},
		},
	})
	for _, d := range defs {
		schema, want, err := MaterializeRows(db, d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		si, err := BuildSegmentIndex(db, d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		got := scanAll(t, si.Seg)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows vs %d", d, len(got), len(want))
		}
		for i := range got {
			g := storage.EncodeRow(schema, got[i], nil)
			w := storage.EncodeRow(schema, want[i], nil)
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: row %d differs", d, i)
			}
		}
	}
}

// TestSegmentIndexSizeWithinTolerance checks the acceptance bound directly
// at the structure level: materialized bytes within 10% of the size model.
// ROW values and section bitmaps cost exactly what the model charges, and
// NONE's row-major reference differs from its column-major pages only in
// where the null bits go, so all that separates either from its model is the
// page frame (a u16 row count and a length prefix per section). Measured
// here: the 16-column clustered lineitem (NONE) comes out 0.43% above the
// model, the 3-column (l_shipdate, l_quantity, RID) ROW secondary 0.11% above
// it, the two PAGE secondaries 3.8% and 3.1% above it — so a NONE or ROW
// structure is never more than 1% larger than what the advisor budgeted for
// it.
func TestSegmentIndexSizeWithinTolerance(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 21})
	for _, d := range segTestDefs() {
		si, err := BuildSegmentIndex(db, d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		model, err := Build(db, d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if e := math.Abs(si.SizeError(model)); e > 0.10 {
			t.Errorf("%s: size model off by %.1f%% (est %d, actual %d)",
				d, 100*e, model.Bytes, si.MaterializedBytes())
		}
		if d.Method == compress.None || d.Method == compress.Row {
			if si.SizeError(model) < -0.01 {
				t.Errorf("%s: %s is %.4f%% larger than the model, framing allows 1%%",
					d, d.Method, -100*si.SizeError(model))
			}
		}
		if si.Physical.Rows != model.Rows || si.Physical.UncompressedBytes != model.UncompressedBytes {
			t.Errorf("%s: build recorded %d rows / %d raw bytes, model %d / %d",
				d, si.Physical.Rows, si.Physical.UncompressedBytes, model.Rows, model.UncompressedBytes)
		}
		estPages := model.Pages
		gotPages := si.MaterializedPages()
		if diff := gotPages - estPages; diff < -1 && float64(-diff) > 0.1*float64(estPages) ||
			diff > 1 && float64(diff) > 0.1*float64(estPages)+1 {
			t.Errorf("%s: page estimate %d vs materialized %d", d, estPages, gotPages)
		}
	}
}

// TestSeekPagesCoversAllMatches verifies the seek contract: every row whose
// leading key falls in the bound lies inside the returned page range.
func TestSeekPagesCoversAllMatches(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 4000, Seed: 9})
	d := &Def{Table: "lineitem", KeyCols: []string{"l_shipmode"}, Method: compress.Row}
	si, err := BuildSegmentIndex(db, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"AIR", "MAIL", "TRUCK"} {
		bound := storage.StringVal(mode)
		lo, hi := si.SeekPages(bound, true, bound, true)
		var inRange, total int64
		for p := 0; p < si.Seg.NumPages(); p++ {
			for _, r := range fullDecode(t, si.Seg, p) {
				if r[0].Compare(bound) == 0 {
					total++
					if p >= lo && p < hi {
						inRange++
					}
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: degenerate (no matches)", mode)
		}
		if inRange != total {
			t.Fatalf("%s: page range [%d,%d) covers %d of %d matching rows", mode, lo, hi, inRange, total)
		}
	}
	// Unbounded seek covers everything.
	if lo, hi := si.SeekPages(storage.Value{}, false, storage.Value{}, false); lo != 0 || hi != si.Seg.NumPages() {
		t.Fatalf("unbounded seek = [%d,%d)", lo, hi)
	}
}

// TestBuildSegmentIndexAllMethods: every recommendable method — and a mixed
// per-column design — materializes to a scannable segment index.
func TestBuildSegmentIndexAllMethods(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 500, Seed: 1})
	defs := []*Def{}
	for _, m := range append([]compress.Method{compress.None}, compress.Methods...) {
		defs = append(defs, &Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Method: m})
	}
	defs = append(defs, &Def{
		Table: "lineitem", KeyCols: []string{"l_shipdate"}, Method: compress.Row,
		ColMethods: map[string]compress.Method{"l_shipmode": compress.GlobalDict, "l_shipdate": compress.RLE},
	})
	for _, d := range defs {
		si, err := BuildSegmentIndex(db, d)
		if err != nil {
			t.Fatalf("%s: BuildSegmentIndex: %v", d, err)
		}
		if si.Seg.Rows() != 500 {
			t.Fatalf("%s: segment has %d rows, want 500", d, si.Seg.Rows())
		}
		if rows := scanAll(t, si.Seg); len(rows) != 500 {
			t.Fatalf("%s: full scan decoded %d rows, want 500", d, len(rows))
		}
	}
}
