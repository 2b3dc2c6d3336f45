package exec

import (
	"cmp"
	"fmt"
	"math/bits"
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
// what it keeps. Streams opened with ordered=true deliver rows in insertion
// (RID) order — required whenever downstream arithmetic is order-sensitive
// (float aggregation) or ORDER BY ties must break like the oracle's.
// Unordered streams may emit in structure-key order, which is only legal for
// consumers that canonicalize afterwards (projections without ORDER BY).
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

// rowSlab keeps copies of rows of one width in chunks that double in size —
// chunk k holds first<<k rows — so a consumer that copies what it keeps out
// of borrowed batches pays a handful of allocations, not one per row; a kept
// row never moves, and row i is found by arithmetic, not a table.
type rowSlab struct {
	w      int
	first  int // rows in chunk 0
	n      int // rows kept
	chunks [][]storage.Value
}

// newRowSlab sizes the first chunk for the expected number of rows, within
// bounds that keep a wrong guess cheap either way.
func newRowSlab(w, expect int) rowSlab {
	return rowSlab{w: w, first: min(max(expect, 64), 1<<15)}
}

// locate returns the chunk of row i and its position in it: chunks 0..k-1
// hold first*(2^k - 1) rows.
func (s *rowSlab) locate(i int) (chunk, pos int) {
	chunk = bits.Len(uint(i/s.first+1)) - 1
	return chunk, i - s.first*(1<<chunk-1)
}

// row returns kept row i.
func (s *rowSlab) row(i int) storage.Row {
	k, pos := s.locate(i)
	return s.chunks[k][pos*s.w : (pos+1)*s.w : (pos+1)*s.w]
}

// keep copies the given columns of r into the slab and returns the copy.
func (s *rowSlab) keep(r storage.Row, cols []int) storage.Row {
	if k, _ := s.locate(s.n); k == len(s.chunks) {
		s.chunks = append(s.chunks, make([]storage.Value, (s.first<<k)*s.w))
	}
	row := s.row(s.n)
	s.n++
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

// ordinalsFor maps the needed column names (plus any extra ordinals, e.g. a
// RID column) onto a strictly ascending, deduplicated ordinal set — the
// shape DecodeSpec.Needed requires.
func ordinalsFor(s *storage.Schema, needed []string, extra ...int) []int {
	seen := make(map[int]bool, len(needed)+len(extra))
	out := make([]int, 0, len(needed)+len(extra))
	add := func(ci int) {
		if ci >= 0 && !seen[ci] {
			seen[ci] = true
			out = append(out, ci)
		}
	}
	for _, n := range needed {
		add(s.ColIndex(n))
	}
	for _, ci := range extra {
		add(ci)
	}
	slices.Sort(out)
	return out
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
// predicate pushdown. ordered asks for insertion-order delivery; paths that
// are naturally RID-ordered (heap scans, RID lookups) ignore it, key-ordered
// covering serves restore order by merging on the carried RID only when
// asked.
func (st *Store) accessStream(rs *runState, table string, preds []workload.Predicate, needed []string, ordered bool) (*rowStream, error) {
	heap, best, err := st.planAccess(table, preds, needed)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return st.heapScanStream(rs, table, heap, preds, needed), nil
	}
	if best.covering {
		return st.coveringStream(rs, table, best, preds, needed, ordered)
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
// leaf carries every needed column. The structure's RID column rides along
// in the decode; unordered consumers get batches as pages decode (key
// order), ordered consumers get the drained range back in RID order.
func (st *Store) coveringStream(rs *runState, table string, best *candidate, preds []workload.Predicate, needed []string, ordered bool) (*rowStream, error) {
	ss := best.si.Schema()
	ridIdx := ss.ColIndex("__rid")
	if ridIdx < 0 {
		return nil, fmt.Errorf("exec: structure %s has no RID column", best.h.id)
	}
	ords := ordinalsFor(ss, needed, ridIdx)
	spec := &storage.DecodeSpec{Needed: ords, Preds: compilePushdown(ss, preds)}
	cur := best.si.PageRangeCursor(best.lo, best.hi, spec, &rs.io)
	cur.EnablePrefetch(rs.pfWindow, rs.pfWorkers)
	rs.paths = append(rs.paths, fmt.Sprintf("seg-%s-seek %s via %s (%d of %d pages)",
		best.h.kind, table, best.h.id, best.hi-best.lo, best.si.Seg.NumPages()))

	// Decoded rows carry __rid at ridPos; the emitted schema drops it.
	ridPos := -1
	outIdx := make([]int, 0, len(ords)-1)
	cols := make([]storage.Column, 0, len(ords)-1)
	for i, o := range ords {
		if o == ridIdx {
			ridPos = i
			continue
		}
		outIdx = append(outIdx, i)
		cols = append(cols, ss.Columns[o])
	}
	outSchema := storage.NewSchema(cols...)
	src := cursorStream(outSchema, cur)
	if !ordered {
		// Canonicalizing consumers don't care about row order: stream page
		// batches straight through, skipping order restoration entirely. The
		// stripped rows live in a slab this stream reuses batch after batch.
		w := len(outIdx)
		var slab []storage.Value
		var rows []storage.Row
		return &rowStream{schema: outSchema, cur: cur, next: func() ([]storage.Row, error) {
			batch, err := src.next()
			if err != nil || batch == nil {
				return nil, err
			}
			slab, rows = slab[:0], rows[:0]
			for _, r := range batch {
				for _, k := range outIdx {
					slab = append(slab, r[k])
				}
			}
			for i := range batch {
				rows = append(rows, slab[i*w:(i+1)*w:(i+1)*w])
			}
			return rows, nil
		}}, nil
	}
	// Insertion-order restoration: the structure delivers key order, so drain
	// it — stripped copies in decode order — and sort a compact (RID,
	// position) array to emit them in RID order.
	type ridAt struct {
		rid int64
		at  int32
	}
	// Most rows of the seek range survive the pushed predicates, so the range
	// is a good guess at the result.
	inRange := int(best.si.Seg.PageStartRow(best.hi) - best.si.Seg.PageStartRow(best.lo))
	slab := newRowSlab(len(outIdx), inRange)
	order := make([]ridAt, 0, slab.first)
	if err := src.forEach(func(r storage.Row) error {
		order = append(order, ridAt{rid: r[ridPos].Int, at: int32(slab.n)})
		slab.keep(r, outIdx)
		return nil
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(order, func(a, b ridAt) int { return cmp.Compare(a.rid, b.rid) })
	batch := make([]storage.Row, 0, min(len(order), orderedBatchRows))
	return &rowStream{schema: outSchema, next: func() ([]storage.Row, error) {
		if len(order) == 0 {
			return nil, nil
		}
		n := min(len(order), cap(batch))
		batch = batch[:0]
		for _, o := range order[:n] {
			batch = append(batch, slab.row(int(o.at)))
		}
		order = order[n:]
		return batch, nil
	}}, nil
}

// orderedBatchRows is how many rows an order-restored stream hands out per
// batch: row headers are built a batch at a time instead of for the whole
// result.
const orderedBatchRows = 1024

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
