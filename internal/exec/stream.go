package exec

import (
	"fmt"
	"slices"

	"cadb/internal/index"
	"cadb/internal/optimizer"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// This file is the store's one access layer: lazy page-granular cursors over
// the plan's access path, with the statement's needed-column set and
// sargable predicates pushed down into the page decode. The pipeline above
// (join, filter, group, shape) pulls batches and never sees more columns or
// rows than the query can observe; writes locate their rows by draining the
// same streams.

// rowStream is a lazily produced sequence of driving-table row batches in a
// fixed schema; next returns a nil slice at exhaustion. A batch is borrowed:
// its rows are valid until the following call to next, so a consumer copies
// what it keeps. Rows come in the access path's own order — insertion order
// from the heap, key order from a covering seek — and no consumer depends on
// it: aggregation is exact and result shaping sorts by a total order.
type rowStream struct {
	schema *storage.Schema
	next   func() ([]storage.Row, error)
	// cur, when set, is the cursor whose readahead workers must be released
	// if the consumer stops early. Cursors self-close at exhaustion and on
	// their own errors.
	cur *index.Cursor
}

// cursorStream streams a cursor's batches as they decode.
func cursorStream(schema *storage.Schema, cur *index.Cursor) *rowStream {
	return &rowStream{schema: schema, cur: cur, next: func() ([]storage.Row, error) {
		b, err := cur.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		return b.Rows, nil
	}}
}

// close releases the stream's cursor resources; a no-op on a stream that has
// none or has already released them.
func (s *rowStream) close() {
	if s.cur != nil {
		s.cur.Close()
	}
}

// rowSlab keeps copies of rows of one width in chunks that double in size,
// so a consumer that copies what it keeps out of borrowed batches pays a
// handful of allocations, not one per row; a kept row never moves.
type rowSlab struct {
	w    int
	next int             // rows in the next chunk
	free []storage.Value // the unused tail of the current chunk
}

func newRowSlab(w int) rowSlab { return rowSlab{w: w, next: 64} }

// keep copies the given columns of r into the slab and returns the copy.
func (s *rowSlab) keep(r storage.Row, cols []int) storage.Row {
	if len(s.free) < s.w {
		s.free = make([]storage.Value, s.next*s.w)
		s.next *= 2
	}
	row := s.free[:s.w:s.w]
	s.free = s.free[s.w:]
	for i, c := range cols {
		row[i] = r[c]
	}
	return row
}

// poison, when a test sets it, overwrites each borrowed row as soon as its
// lender may reuse it — a batch's rows before the stream advances, the
// widened row before the next widen — so a consumer that kept a reference
// fails the differential tests at once, not whenever a buffer happens to be
// recycled.
var poison func(storage.Row)

// forEach drains the stream through fn — the one loop every consumer of a
// stream runs — releasing cursor resources if fn aborts the drain.
func (s *rowStream) forEach(fn func(storage.Row) error) error {
	for {
		batch, err := s.next()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		for _, r := range batch {
			if err := fn(r); err != nil {
				s.close()
				return err
			}
		}
		if poison != nil {
			for _, r := range batch {
				poison(r)
			}
		}
	}
}

// compilePushdown lowers the statement's predicates onto a segment schema:
// every predicate whose column the segment stores under that name becomes a
// storage.ColPredicate with bounds coerced to the column kind (see
// workload.Predicate.Lower). Pushdown only saves decoding: which rows a
// statement reads or writes is decided by index.RowFilter, whose binding
// (index.ResolveCol) re-applies every predicate after the join and fails on
// an unknown column. So a predicate on another table's column, or one only
// the suffix rule would bind, is simply not pushed.
func compilePushdown(s *storage.Schema, preds []workload.Predicate) []storage.ColPredicate {
	var out []storage.ColPredicate
	for _, p := range preds {
		if ci := s.ColIndex(p.Col); ci >= 0 {
			out = append(out, p.Lower(ci, s.Columns[ci].Kind))
		}
	}
	return out
}

// ordinalsFor maps the needed column names onto a strictly ascending,
// deduplicated ordinal set — the shape DecodeSpec.Needed requires.
func ordinalsFor(s *storage.Schema, needed []string) []int {
	out := make([]int, 0, len(needed))
	for _, n := range needed {
		if ci := s.ColIndex(n); ci >= 0 {
			out = append(out, ci)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// projectSchema returns the schema of the given ordinals, in order.
func projectSchema(s *storage.Schema, ords []int) *storage.Schema {
	cols := make([]storage.Column, len(ords))
	for i, ci := range ords {
		cols[i] = s.Columns[ci]
	}
	return storage.NewSchema(cols...)
}

// open streams one table of a statement along its plan path (see route),
// decoding lazily, column-selectively and with predicate pushdown, and
// records the path under the plan's kind. With SetPrefetch on, readahead
// keeps a window of pages loading ahead of the decode.
func (st *Store) open(rs *runState, plan *optimizer.Plan, table string, preds []workload.Predicate, needed []string) (*rowStream, error) {
	r, err := st.route(plan, table, needed)
	if err != nil {
		return nil, err
	}
	si := r.h.si
	if r.h.hypo == nil {
		rs.paths = append(rs.paths, fmt.Sprintf("%s %s (%d pages)", r.ap.Kind, table, si.Seg.NumPages()))
		return rangeStream(rs, si, r.lo, r.hi, preds, needed), nil
	}
	span := fmt.Sprintf("%s via %s (%d of %d pages", table, r.h.id, r.hi-r.lo, si.Seg.NumPages())
	if r.lookup == nil {
		rs.paths = append(rs.paths, fmt.Sprintf("%s %s)", r.ap.Kind, span))
		return rangeStream(rs, si, r.lo, r.hi, preds, needed), nil
	}
	// Seek + lookup: the range decoded down to its RID column (predicates
	// still pushed), then the base structure's rows at those RIDs, each of
	// its pages visited once, in page order.
	if si.Schema().ColIndex("__rid") < 0 {
		return nil, fmt.Errorf("exec: structure %s has no RID column", r.h.id)
	}
	var rids []int64
	err = rangeStream(rs, si, r.lo, r.hi, preds, []string{"__rid"}).forEach(func(row storage.Row) error {
		rids = append(rids, row[0].Int)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.paths = append(rs.paths, fmt.Sprintf("%s+lookup %s, %d lookups in %s)", r.ap.Kind, span, len(rids), r.lookup.id))
	base := r.lookup.si
	bs := base.Schema()
	ords := ordinalsFor(bs, needed)
	cur, err := base.RIDCursor(rids, &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(bs, preds)}, &rs.io)
	if err != nil {
		return nil, err
	}
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	return cursorStream(projectSchema(bs, ords), cur), nil
}

// rangeStream streams the page range [lo, hi) of a segment in page order —
// insertion order on a heap, key order on an ordered structure.
func rangeStream(rs *runState, si *index.SegmentIndex, lo, hi int, preds []workload.Predicate, needed []string) *rowStream {
	ss := si.Schema()
	ords := ordinalsFor(ss, needed)
	cur := si.PageRangeCursor(lo, hi, &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(ss, preds)}, &rs.io)
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	return cursorStream(projectSchema(ss, ords), cur)
}
