package compress

import (
	"testing"

	"cadb/internal/storage"
)

// TestSizeModelAllocationsFlat: the size model allocates only while its
// buffers, tables and page-group list grow, never per value, so doubling the
// rows adds at most a few doublings' worth of allocations.
func TestSizeModelAllocationsFlat(t *testing.T) {
	const (
		ceiling = 128 // allocations of one measure, at either size
		growth  = 16  // extra allocations for twice the rows
	)
	small, smallRows := lineitemByShipdate(3000)
	large, largeRows := lineitemByShipdate(6000)
	measure := func(s *storage.Schema, rows []storage.Row, m Method) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := MeasureDesignSizes(s, rows).SizeFor(m, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, m := range []Method{Page, GlobalDict, RLE} {
		a, b := measure(small, smallRows, m), measure(large, largeRows, m)
		t.Logf("%s: %.0f allocations over %d rows, %.0f over %d", m, a, len(smallRows), b, len(largeRows))
		if a > ceiling || b > ceiling {
			t.Errorf("%s: %.0f and %.0f allocations, ceiling %d", m, a, b, ceiling)
		}
		if b > a+growth {
			t.Errorf("%s: %.0f allocations over %d rows but %.0f over %d: more than %d for twice the rows",
				m, a, len(smallRows), b, len(largeRows), growth)
		}
	}
}

// TestRLEModelNullRunIsAFlag: a NULL run is its own run in the model, as in
// the codec, even next to a value whose minimal encoding is the 5 bytes
// "\x00null", the size the model charges a NULL run as. Over a column
// alternating the two, the model charges one run per row, exactly the runs
// the codec writes.
func TestRLEModelNullRunIsAFlag(t *testing.T) {
	s := storage.NewSchema(storage.Column{Name: "v", Kind: storage.KindString, Nullable: true})
	rows := make([]storage.Row, 200)
	for i := range rows {
		rows[i] = storage.Row{storage.StringVal("\x00null")}
		if i%2 == 0 {
			rows[i] = storage.Row{storage.NullValue(storage.KindString)}
		}
	}
	sc := &modelScratch{}
	for _, g := range storage.PackRows(s, rows) {
		group := rows[g.Start:g.End]
		// Every run, NULL or "\x00null", costs a 2-byte header plus the
		// length-prefixed 5 bytes (charged, or stored): rleNullRunCost.
		modelRuns := rleColumnSize(s.Columns[0], group, 0, sc) / rleNullRunCost

		pv := pageValues{}
		for _, r := range group {
			pv.add(s.Columns[0], r[0])
		}
		codecRuns := 0
		for body := appendRLESection(nil, group, 0, &pv); len(body) > 0; codecRuns++ {
			hdr := uint16(body[0])<<8 | uint16(body[1])
			body = body[2:]
			if hdr&0x8000 == 0 {
				n, at, err := readLenPrefix(body)
				if err != nil {
					t.Fatal(err)
				}
				body = body[at+n:]
			}
		}
		if codecRuns != len(group) {
			t.Fatalf("codec wrote %d runs over %d alternating rows", codecRuns, len(group))
		}
		if modelRuns != int64(codecRuns) {
			t.Fatalf("model charged %d runs over %d alternating rows, the codec wrote %d", modelRuns, len(group), codecRuns)
		}
	}
}
