package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/par"
	"cadb/internal/storage"
)

// SegmentIndex is a physically materialized index: the leaf rows encoded
// into a compressed page-backed segment, plus the per-page low keys a seek
// needs to land on the right leaf page without decoding the level. It is the
// ground truth the size model's estimates (Physical.Bytes/Pages of Build)
// are diffed against.
type SegmentIndex struct {
	Def *Def
	// Physical is what the build knows about its input. The size model stays
	// off the build path: callers that want its estimate run Build (or
	// BuildFromRows) and hand it to SizeError.
	Physical *LeafStats
	// Seg is the materialized page store.
	Seg *storage.Segment
	// lowKeys[i] holds the key-column values of the first row on page i.
	lowKeys [][]storage.Value
	nKeys   int
}

// LeafStats describes the leaf rows a segment was built from.
type LeafStats struct {
	Schema *storage.Schema
	// Rows is the number of leaf entries.
	Rows int64
	// UncompressedBytes is the leaf payload before compression.
	UncompressedBytes int64
}

// BuildSegmentIndex materializes the index as a compressed segment over the
// database: BuildSegments of one definition.
func BuildSegmentIndex(db *catalog.Database, d *Def) (*SegmentIndex, error) {
	sis, err := BuildSegments(db, []*Def{d}, nil)
	return sis[0], err
}

// BuildSegments materializes one segment per definition over the database's
// current rows in one fan-out across the CPUs. The builds share each key
// column's ranks and start heaviest first (base rows × leaf width), so the
// longest does not start last; a finished build's leaf slab goes to the next
// build that fits in it. Each lands in its definition's slot, so the
// segments are the same at any GOMAXPROCS. done, when non-nil, runs on each
// built segment inside the fan-out. A failed build or done leaves its slot
// nil; the first error in definition order is returned.
func BuildSegments(db *catalog.Database, defs []*Def, done func(i int, si *SegmentIndex) error) ([]*SegmentIndex, error) {
	b := &buildBatch{db: db}
	order, weight := make([]int, len(defs)), make([]int, len(defs))
	for i, d := range defs {
		order[i] = i
		if t := db.Table(d.Table); t != nil {
			weight[i] = len(t.Rows) * (len(d.Columns()) + 1)
			if d.Clustered {
				weight[i] = len(t.Rows) * len(t.Schema.Columns)
			}
		}
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(weight[y], weight[x]) })
	out, errs := make([]*SegmentIndex, len(defs)), make([]error, len(defs))
	par.For(runtime.GOMAXPROCS(0), len(order), func(k int) {
		i := order[k]
		schema, leaf, err := b.leafRows(defs[i])
		if err == nil {
			out[i], err = BuildSegmentOver(schema, leaf.rows, defs[i])
			b.give(leaf)
		}
		if err == nil && done != nil {
			err = done(i, out[i])
		}
		if errs[i] = err; err != nil {
			out[i] = nil
		}
	})
	return out, cmp.Or(errs...)
}

// BuildSegmentOver materializes a segment index over pre-built, pre-sorted
// leaf rows.
func BuildSegmentOver(schema *storage.Schema, rows []storage.Row, d *Def) (*SegmentIndex, error) {
	codec := compress.DesignCodec(d.Method, d.ColMethods)
	if codec == nil {
		return nil, fmt.Errorf("index: %s names a method with no materializing codec", d)
	}
	seg, err := storage.BuildSegment(schema, rows, codec)
	if err != nil {
		return nil, err
	}
	si := &SegmentIndex{
		Def:      d,
		Physical: &LeafStats{Schema: schema, Rows: int64(len(rows)), UncompressedBytes: storage.PackedBytes(schema, rows)},
		Seg:      seg,
		nKeys:    len(d.KeyCols),
	}
	if si.nKeys > 0 {
		si.lowKeys = make([][]storage.Value, seg.NumPages())
		at := 0
		for i := 0; i < seg.NumPages(); i++ {
			key := make([]storage.Value, si.nKeys)
			copy(key, rows[at][:si.nKeys])
			si.lowKeys[i] = key
			at += seg.PageRows(i)
		}
	}
	return si, nil
}

// Schema returns the leaf schema (key + include columns, plus __rid for
// non-clustered indexes).
func (si *SegmentIndex) Schema() *storage.Schema { return si.Seg.Schema }

// MaterializedBytes is the accounted payload size of the real segment.
func (si *SegmentIndex) MaterializedBytes() int64 { return si.Seg.PayloadBytes() }

// MaterializedPages is the physical page count of the real segment.
func (si *SegmentIndex) MaterializedPages() int64 { return si.Seg.PhysicalPages() }

// SizeError returns the relative error of a size-model measurement of the
// same definition (Build, BuildFromRows) against the materialized segment:
// (estimated - actual) / actual.
func (si *SegmentIndex) SizeError(model *Physical) float64 {
	actual := si.MaterializedBytes()
	if actual == 0 {
		return 0
	}
	return float64(model.Bytes-actual) / float64(actual)
}

// Seek is a composite-key seek: an equality on each of the leading len(Eq)
// key columns, then an optional range on the next one. Bounds are inclusive
// and need not be of the key column's kind; they are coerced to it.
type Seek struct {
	Eq           []storage.Value
	Lo, Hi       storage.Value
	HasLo, HasHi bool
}

// SeekPrefix returns the half-open page range [lo, hi) that can contain rows
// matching the seek. The range is conservative: every matching row is inside
// it, pages at the edges may hold others. A seek with no equality is a
// leading-key range; one with no bound at all reads every page.
func (si *SegmentIndex) SeekPrefix(s Seek) (int, int) {
	n := si.Seg.NumPages()
	if si.nKeys == 0 || n == 0 {
		return 0, n
	}
	// The tuples bounding the matching key prefixes: the equalities, then
	// the range bound when there is one and a key column left to hold it.
	eq := s.Eq[:min(len(s.Eq), si.nKeys)]
	bound := func(v storage.Value, has bool) []storage.Value {
		b := make([]storage.Value, len(eq), len(eq)+1)
		for i, e := range eq {
			b[i] = e.CoerceTo(si.Seg.Schema.Columns[i].Kind)
		}
		if has && len(eq) < si.nKeys {
			b = append(b, v.CoerceTo(si.Seg.Schema.Columns[len(eq)].Kind))
		}
		return b
	}
	lower, upper := bound(s.Lo, s.HasLo), bound(s.Hi, s.HasHi)
	lo := 0
	if len(lower) > 0 {
		// First page whose low key prefix reaches the lower tuple; the
		// matching range can start on the page before it (whose tail may
		// hold it), but no earlier — every row there is at most the page
		// after's low key. Note >= 0, not > 0: with duplicate keys spanning
		// pages, the first match sits before the *last* page opening with
		// the lower tuple.
		i := sort.Search(n, func(i int) bool { return comparePrefix(si.lowKeys[i], lower) >= 0 })
		lo = max(i-1, 0)
	}
	hi := n
	if len(upper) > 0 {
		// Pages whose low key prefix exceeds the upper tuple hold no match.
		hi = sort.Search(n, func(i int) bool { return comparePrefix(si.lowKeys[i], upper) > 0 })
	}
	return lo, max(hi, lo)
}

// comparePrefix orders a page low key, on its first len(bound) columns,
// against a bound tuple — lexicographically under Value.Compare, the order the
// leaf rows are sorted in.
func comparePrefix(key, bound []storage.Value) int {
	for i, b := range bound {
		if c := key[i].Compare(b); c != 0 {
			return c
		}
	}
	return 0
}
