package compress

import (
	"fmt"
	"strings"
	"sync"

	"cadb/internal/storage"
)

// This file is the size model: the one answer to "how many bytes does this
// compressed design take over these rows", uniform or mixed. It mirrors the
// column-major pages the design codec writes: one section per column, each
// carrying its own null bitmap (RLE sections carry none), over the page
// groups induced by the uncompressed layout, plus a shared slot array unless
// every column is RLE. A uniform method is the design whose columns all share
// it, so it is sized the same way. The model charges neither the page frame
// (the u16 row count and each section's length prefix) nor PAGE's dictionary
// count and bitmap; on multi-page structures those amortize to a few percent.
//
// The one exception is the all-NONE design. It is sized as
// storage.PackedBytes, the row-major uncompressed reference that heap bytes,
// budgets and compression fractions are measured in.

// DesignSizes is the size model of one row set: each column's section bytes
// under each method, measured the first time a design asks for that method,
// so that any design then sizes in O(columns). It is safe for concurrent use.
type DesignSizes struct {
	s    *storage.Schema
	rows []storage.Row

	groupsOnce sync.Once
	groups     []storage.PageGroup

	// sections[m] holds each column's modeled section bytes under method m
	// (null bitmap included, slot array not).
	sections [numMethods]struct {
		once  sync.Once
		bytes []int64
	}
}

// MeasureDesignSizes returns the size model of the rows (already in index
// order). Each method is measured by the first SizeFor that needs it.
func MeasureDesignSizes(s *storage.Schema, rows []storage.Row) *DesignSizes {
	return &DesignSizes{s: s, rows: rows}
}

// SizeFor returns the modeled payload bytes of the design (def, overrides):
// the sum of each column's section bytes under its method, plus the shared
// slot array unless every column is RLE. An all-NONE design returns the
// uncompressed reference. A design naming an unknown method is an error.
func (d *DesignSizes) SizeFor(def Method, overrides map[string]Method) (int64, error) {
	if !HasCodec(def) {
		return 0, fmt.Errorf("compress: unknown method %s", def)
	}
	for col, m := range overrides {
		if !HasCodec(m) {
			return 0, fmt.Errorf("compress: column %q names unknown method %s", col, m)
		}
	}
	methods := make([]Method, len(d.s.Columns))
	allNone, pureRLE := true, len(methods) > 0
	for ci, c := range d.s.Columns {
		methods[ci] = methodForColumn(c.Name, def, overrides)
		allNone = allNone && methods[ci] == None
		pureRLE = pureRLE && methods[ci] == RLE
	}
	if allNone {
		return storage.PackedBytes(d.s, d.rows), nil
	}
	var total int64
	for ci, m := range methods {
		total += d.sectionBytes(m)[ci]
	}
	if !pureRLE {
		total += int64(len(d.rows) * storage.SlotSize)
	}
	return total, nil
}

// Fraction returns the compression fraction CF = compressed/uncompressed of
// the rows under uniform method m (1 for no rows).
func Fraction(s *storage.Schema, rows []storage.Row, m Method) (float64, error) {
	unc := storage.PackedBytes(s, rows)
	if unc == 0 {
		return 1, nil
	}
	b, err := MeasureDesignSizes(s, rows).SizeFor(m, nil)
	if err != nil {
		return 0, err
	}
	return float64(b) / float64(unc), nil
}

// LayoutSavingPerRow is what a uniform design of m over cols columns saves
// per row in layout alone against the row-major reference, which pays a
// ceil(cols/8)-byte null bitmap and a slot per row: SizeFor charges a
// 1-bit-per-row bitmap in every section but RLE's, and the slot array unless
// every column is RLE. NONE is the reference itself.
func LayoutSavingPerRow(m Method, cols int) float64 {
	switch m {
	case None:
		return 0
	case RLE:
		return float64((cols+7)/8 + storage.SlotSize)
	default:
		return float64((cols+7)/8) - float64(cols)/8
	}
}

// sectionBytes returns every column's section bytes under m, measuring them
// on first use.
func (d *DesignSizes) sectionBytes(m Method) []int64 {
	sec := &d.sections[m]
	sec.once.Do(func() { sec.bytes = d.measure(m) })
	return sec.bytes
}

// pageGroups returns the page groups of the uncompressed layout, computed once.
func (d *DesignSizes) pageGroups() []storage.PageGroup {
	d.groupsOnce.Do(func() { d.groups = storage.PackRows(d.s, d.rows) })
	return d.groups
}

// measure walks the rows once to size every column under m. Page-local
// sections are summed over the page groups; a GDICT column's dictionary spans
// the whole row set and only its null bitmaps are per page. One scratch
// serves every page group and column.
func (d *DesignSizes) measure(m Method) []int64 {
	out := make([]int64, len(d.s.Columns))
	sc := &modelScratch{page: pageColSizer{model: true}}
	for _, g := range d.pageGroups() {
		rows := d.rows[g.Start:g.End]
		bitmap := int64((len(rows) + 7) / 8)
		for ci, c := range d.s.Columns {
			switch m {
			case None:
				out[ci] += bitmap + noneColumnSize(c, rows, ci)
			case Row:
				out[ci] += bitmap + rowColumnSize(c, rows, ci, sc)
			case Page:
				out[ci] += bitmap + pageColumnSize(c, rows, ci, sc)
			case GlobalDict:
				out[ci] += bitmap
			case RLE:
				out[ci] += rleColumnSize(c, rows, ci, sc)
			}
		}
	}
	if m == GlobalDict {
		for ci, c := range d.s.Columns {
			out[ci] += gdictColumnSize(c, d.rows, ci, sc)
		}
	}
	return out
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
