package storage_test

import (
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/storage"
)

// TestPackedBytesEqualsPackRowsTotal pins the total-only size function to the
// bytes of the page groups PackRows lays out, over every table of the two
// generated databases and the shapes where only VARCHAR lengths or overflow
// pages move the size: NULL
// VARCHARs, CHAR(n) (fixed, however long the value), over-long VARCHARs
// (capped at the u16 length), oversized rows, a CHAR wider than a page, and
// no rows at all.
func TestPackedBytesEqualsPackRowsTotal(t *testing.T) {
	check := func(label string, s *storage.Schema, rows []storage.Row) {
		t.Helper()
		var want int64
		for _, g := range storage.PackRows(s, rows) {
			want += int64(g.Bytes)
		}
		if got := storage.PackedBytes(s, rows); got != want {
			t.Errorf("%s: PackedBytes %d, PackRows total %d", label, got, want)
		}
	}
	for _, db := range []*catalog.Database{
		datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 1}),
		datagen.NewSales(datagen.SalesConfig{FactRows: 5000, Zipf: 0.8, Seed: 1}),
	} {
		for _, tbl := range db.Tables() {
			check(db.Name+"."+tbl.Name, tbl.Schema, tbl.Rows)
		}
	}

	s := storage.NewSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "f", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "d", Kind: storage.KindDate, Nullable: true},
		storage.Column{Name: "code", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
		storage.Column{Name: "note", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "blob", Kind: storage.KindString, Nullable: true},
	)
	null := func(k storage.Kind) storage.Value { return storage.NullValue(k) }
	str := storage.StringVal
	var rows []storage.Row
	for i, v := range []struct{ code, note, blob storage.Value }{
		{str("AIR"), str("short"), str("")},
		{null(storage.KindString), null(storage.KindString), null(storage.KindString)},
		{str(strings.Repeat("c", 40)), str("x"), str(strings.Repeat("b", storage.UsablePageBytes))},    // oversized by a few bytes
		{str("RAIL"), str(strings.Repeat("n", 3*storage.UsablePageBytes)), null(storage.KindString)},   // a multi-page overflow run
		{str("SHIP"), str(strings.Repeat("n", 9*storage.UsablePageBytes)), str("y")},                   // capped at the u16 length: 9 pages, not 10
		{str(""), str(strings.Repeat("e", storage.UsablePageBytes-80)), str("")},                       // just fits
		{null(storage.KindString), str("tail"), str(strings.Repeat("w", storage.UsablePageBytes/2))},   // half a page
		{str("TRUCK"), null(storage.KindString), str(strings.Repeat("z", storage.UsablePageBytes-37))}, // exactly a page
		{str("MAIL"), null(storage.KindString), str(strings.Repeat("z", storage.UsablePageBytes-36))},  // one byte over
	} {
		rows = append(rows, storage.Row{storage.IntVal(int64(i)), storage.FloatVal(1.5), storage.DateVal(9000), v.code, v.note, v.blob})
		check("edge rows", s, rows)
	}
	rows[0][1], rows[0][2] = null(storage.KindFloat), null(storage.KindDate)
	check("edge rows, NULL fixed-width values", s, rows)
	check("edge schema, no rows", s, nil)

	fixed := storage.NewSchema(storage.Column{Name: "a", Kind: storage.KindInt}, storage.Column{Name: "c", Kind: storage.KindString, FixedWidth: 4})
	check("fixed-width schema", fixed, []storage.Row{{storage.IntVal(1), str("ab")}, {storage.IntVal(2), null(storage.KindString)}})
	wide := storage.NewSchema(storage.Column{Name: "c", Kind: storage.KindString, FixedWidth: storage.UsablePageBytes + 1})
	check("CHAR wider than a page", wide, []storage.Row{{str("x")}, {null(storage.KindString)}})
}
