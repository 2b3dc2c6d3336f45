package exec

import (
	"fmt"
	"slices"

	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// This file is the store's one access layer: lazy page-granular cursors over
// the chosen access path, with the statement's needed-column set and
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
// every predicate whose column exists becomes a storage.ColPredicate with
// bounds coerced to the column kind (see workload.Predicate.Lower).
// Predicates on other tables' columns are left to the post-join filter,
// which re-applies everything.
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

// accessStream opens the driving-table stream for a statement over the
// cheapest access path, decoding lazily, column-selectively and with
// predicate pushdown.
func (st *Store) accessStream(rs *runState, table string, preds []workload.Predicate, needed []string) (*rowStream, error) {
	heap, best, err := st.planAccess(table, preds, needed)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return st.heapScanStream(rs, table, heap, preds, needed), nil
	}
	if best.covering {
		return st.coveringStream(rs, table, best, preds, needed), nil
	}
	return st.lookupStream(rs, table, heap, best, preds, needed)
}

// heapScanStream streams the heap in page order — insertion order by
// construction — decoding only the needed columns and pre-filtering rows in
// the codec. With SetPrefetch on, readahead keeps a window of pages loading
// ahead of the decode.
func (st *Store) heapScanStream(rs *runState, table string, heap *index.SegmentIndex, preds []workload.Predicate, needed []string) *rowStream {
	hs := heap.Schema()
	ords := ordinalsFor(hs, needed)
	spec := &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(hs, preds)}
	cur := heap.ScanCursor(spec, &rs.io)
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	rs.paths = append(rs.paths, fmt.Sprintf("seg-scan %s (%d pages)", table, heap.Seg.NumPages()))
	return cursorStream(projectSchema(hs, ords), cur)
}

// coveringStream serves the statement from a key-ordered structure whose
// leaf carries every needed column: the page-range twin of heapScanStream,
// delivering the seek range in key order.
func (st *Store) coveringStream(rs *runState, table string, best *candidate, preds []workload.Predicate, needed []string) *rowStream {
	ss := best.si.Schema()
	ords := ordinalsFor(ss, needed)
	spec := &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(ss, preds)}
	cur := best.si.PageRangeCursor(best.lo, best.hi, spec, &rs.io)
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	rs.paths = append(rs.paths, fmt.Sprintf("seg-%s-seek %s via %s (%d of %d pages)",
		best.h.kind, table, best.h.id, best.hi-best.lo, best.si.Seg.NumPages()))
	return cursorStream(projectSchema(ss, ords), cur)
}

// lookupStream runs a non-covering index seek: the structure range is
// decoded down to just its RID column (predicates still pushed), then the
// matching heap rows are fetched with a slot-filtered RID cursor — each heap
// page visited once, in insertion order, decoding only the needed columns.
// If the qualifying RIDs would touch more heap pages than a scan, it falls
// back to scanning (the structure reads stay counted — the descent was real
// work).
func (st *Store) lookupStream(rs *runState, table string, heap *index.SegmentIndex, best *candidate, preds []workload.Predicate, needed []string) (*rowStream, error) {
	ss := best.si.Schema()
	ridIdx := ss.ColIndex("__rid")
	if ridIdx < 0 {
		return nil, fmt.Errorf("exec: structure %s has no RID column", best.h.id)
	}
	spec := &storage.DecodeSpec{Needed: []int{ridIdx}, Preds: compilePushdown(ss, preds)}
	cur := best.si.PageRangeCursor(best.lo, best.hi, spec, &rs.io)
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	var rids []int64
	if err := cursorStream(nil, cur).forEach(func(r storage.Row) error {
		rids = append(rids, r[0].Int)
		return nil
	}); err != nil {
		return nil, err
	}
	slices.Sort(rids)
	if best.score+distinctHeapPages(heap, rids) >= heap.Seg.PhysicalPages() {
		return st.heapScanStream(rs, table, heap, preds, needed), nil
	}
	hs := heap.Schema()
	ords := ordinalsFor(hs, needed)
	hspec := &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(hs, preds)}
	hcur := heap.RIDCursor(rids, hspec, &rs.io)
	hcur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	rs.paths = append(rs.paths, fmt.Sprintf("seg-index-seek+lookup %s via %s (%d of %d pages, %d lookups)",
		table, best.h.id, best.hi-best.lo, best.si.Seg.NumPages(), len(rids)))
	return cursorStream(projectSchema(hs, ords), hcur), nil
}
