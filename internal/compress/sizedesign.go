package compress

import (
	"strings"

	"cadb/internal/storage"
)

// This file extends the size model from uniform methods to per-column
// compression designs (one method per column). The decomposition mirrors the
// mixed-method page layout the design codec actually writes: column-major
// sections, each carrying its own null bitmap (RLE sections carry none), over
// the page groups induced by the uncompressed layout, plus a shared slot
// array unless every column is RLE.
//
// Uniform designs keep their existing row-major models exactly:
// SizeRowsDesign routes a design that collapses to a single method to
// SizeRows, so every current recommendation and golden estimate is
// unchanged. Only genuinely mixed designs use the per-column decomposition.

// DesignSizes caches the per-(column, method) size decomposition of one row
// set so that any per-column design can be sized in O(columns) without
// re-walking the rows. Build it once with MeasureDesignSizes, then call
// SizeFor per candidate design.
type DesignSizes struct {
	rows      int
	slotBytes int64 // per-row slot-array overhead; waived for pure-RLE designs
	// perCol[ci][m] is the modeled section bytes of column ci under method m
	// (null bitmaps included; no slot array).
	perCol []map[Method]int64
}

// Rows returns the number of rows the decomposition was measured over.
func (d *DesignSizes) Rows() int { return d.rows }

// MeasureDesignSizes walks the rows once per (column, method) pair and
// returns the cached decomposition. Page-local terms (PAGE, RLE) use the page
// groups induced by the uncompressed layout, like their uniform models;
// GDICT terms are segment-level with the same min(dictionary, plain)
// election as sizeGlobalDict.
func MeasureDesignSizes(s *storage.Schema, rows []storage.Row) *DesignSizes {
	d := &DesignSizes{
		rows:      len(rows),
		slotBytes: int64(len(rows) * storage.SlotSize),
		perCol:    make([]map[Method]int64, len(s.Columns)),
	}
	for ci := range s.Columns {
		d.perCol[ci] = make(map[Method]int64, int(numMethods))
	}
	groups := storage.PackRows(s, rows)
	scratch := make([]byte, 0, 64)
	for _, g := range groups {
		n := g.End - g.Start
		bm := int64((n + 7) / 8) // per-column section null bitmap
		grows := rows[g.Start:g.End]
		for ci, c := range s.Columns {
			// NONE: full-width values (nulls included, zero-filled), plus the
			// section bitmap.
			var none int64
			for _, r := range grows {
				none += int64(storage.EncodedValueSize(c, r[ci]))
			}
			d.perCol[ci][None] += bm + none

			// ROW: length-prefixed minimal values for non-nulls.
			var row int64
			for _, r := range grows {
				var sz int
				sz, scratch = rowCompressedValueSize(c, r[ci], scratch)
				row += int64(sz)
			}
			d.perCol[ci][Row] += bm + row

			// PAGE: the uniform per-column model plus the section bitmap.
			d.perCol[ci][Page] += bm + int64(pageColumnSize(c, grows, ci))

			// RLE: run headers only, no bitmap, no per-row overhead.
			d.perCol[ci][RLE] += rleColumnSize(c, grows, ci, &scratch)
		}
	}
	// GDICT is segment-level: one dictionary per column, the same
	// min(dictionary, plain) election as sizeGlobalDict, plus the per-group
	// section bitmaps accumulated above for ROW (identical overhead shape).
	var bitmaps int64
	for _, g := range groups {
		bitmaps += int64((g.End - g.Start + 7) / 8)
	}
	for ci, c := range s.Columns {
		var sz int64
		sz, scratch = gdictColumnSize(c, rows, ci, scratch)
		d.perCol[ci][GlobalDict] = bitmaps + sz
	}
	return d
}

// rleColumnSize is the RLE run model for one column within one page group:
// per run, a 2-byte header plus (for value runs) the length-prefixed value
// bytes — the same accounting sizeRLE applies column by column.
func rleColumnSize(c storage.Column, rows []storage.Row, ci int, scratch *[]byte) int64 {
	var prev string
	started := false
	var size int64
	for _, r := range rows {
		var cur string
		if r[ci].Null {
			cur = "\x00null"
		} else {
			*scratch = valueBytes(c, r[ci], (*scratch)[:0])
			cur = string(*scratch)
		}
		if !started || cur != prev {
			size += int64(lenPrefixSize(len(cur)) + len(cur) + 2)
			prev = cur
			started = true
		}
	}
	return size
}

// SizeFor assembles the modeled payload size of a per-column design from the
// cached decomposition: the sum of each column's section bytes under its
// method, plus the shared slot array unless every column is RLE.
func (d *DesignSizes) SizeFor(s *storage.Schema, def Method, overrides map[string]Method) int64 {
	var total int64
	pureRLE := len(s.Columns) > 0
	for ci, c := range s.Columns {
		m := methodForColumn(c.Name, def, overrides)
		if m != RLE {
			pureRLE = false
		}
		total += d.perCol[ci][m]
	}
	if !pureRLE {
		total += d.slotBytes
	}
	return total
}

// methodForColumn resolves a column's method under (def, overrides); override
// keys match case-insensitively, like the design codec.
func methodForColumn(name string, def Method, overrides map[string]Method) Method {
	if len(overrides) == 0 {
		return def
	}
	if m, ok := overrides[name]; ok {
		return m
	}
	if m, ok := overrides[strings.ToLower(name)]; ok {
		return m
	}
	return def
}

// UniformMethod reports whether the design (def, overrides) assigns the same
// method to every column of the schema, and if so which one.
func UniformMethod(s *storage.Schema, def Method, overrides map[string]Method) (Method, bool) {
	if len(s.Columns) == 0 {
		return def, true
	}
	m0 := methodForColumn(s.Columns[0].Name, def, overrides)
	for _, c := range s.Columns[1:] {
		if methodForColumn(c.Name, def, overrides) != m0 {
			return def, false
		}
	}
	return m0, true
}

// SizeRowsDesign measures the modeled compressed payload of the rows under a
// per-column design. Designs that collapse to a uniform method use the exact
// uniform model (SizeRows) so existing estimates are unchanged; mixed designs
// use the per-column decomposition.
func SizeRowsDesign(s *storage.Schema, rows []storage.Row, def Method, overrides map[string]Method) int64 {
	if m, ok := UniformMethod(s, def, overrides); ok {
		return SizeRows(s, rows, m)
	}
	return MeasureDesignSizes(s, rows).SizeFor(s, def, overrides)
}
