package exec

import (
	"fmt"
	"sort"

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
// fixed schema; next returns a nil slice at exhaustion. Streams opened with
// ordered=true deliver rows in insertion (RID) order — required whenever
// downstream arithmetic is order-sensitive (float aggregation) or ORDER BY
// ties must break like the oracle's. Unordered streams may emit in
// structure-key order, which is only legal for consumers that canonicalize
// afterwards (projections without ORDER BY).
type rowStream struct {
	schema *storage.Schema
	next   func() ([]storage.Row, error)
	// close releases the stream's cursor resources (readahead workers) when
	// the consumer stops early; nil when there are none.
	// Cursors self-close at exhaustion and on their own errors.
	close func()
}

func singleBatch(schema *storage.Schema, rows []storage.Row) *rowStream {
	done := false
	return &rowStream{schema: schema, next: func() ([]storage.Row, error) {
		if done || len(rows) == 0 {
			return nil, nil
		}
		done = true
		return rows, nil
	}}
}

// forEach drains the stream through fn, releasing cursor resources if fn
// aborts the drain.
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
				if s.close != nil {
					s.close()
				}
				return err
			}
		}
	}
}

// compilePushdown lowers the statement's predicates onto a segment schema:
// every predicate whose column exists becomes a storage.ColPredicate with
// bounds coerced to the column kind. The oracle coerces the bound per row to
// the stored value's kind, but a stored value always has its column's kind,
// so compile-time coercion is equivalent. Predicates on other tables'
// columns are left to the post-join filter, which re-applies everything.
func compilePushdown(s *storage.Schema, preds []workload.Predicate) []storage.ColPredicate {
	var out []storage.ColPredicate
	for _, p := range preds {
		ci := s.ColIndex(p.Col)
		if ci < 0 {
			continue
		}
		kind := s.Columns[ci].Kind
		cp := storage.ColPredicate{Col: ci, Lo: p.Lo.CoerceTo(kind)}
		switch p.Op {
		case workload.OpEq:
			cp.Op = storage.PredEq
		case workload.OpNe:
			cp.Op = storage.PredNe
		case workload.OpLt:
			cp.Op = storage.PredLt
		case workload.OpLe:
			cp.Op = storage.PredLe
		case workload.OpGt:
			cp.Op = storage.PredGt
		case workload.OpGe:
			cp.Op = storage.PredGe
		case workload.OpBetween:
			cp.Op = storage.PredBetween
			cp.Hi = p.Hi.CoerceTo(kind)
		default:
			continue
		}
		out = append(out, cp)
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
	sort.Ints(out)
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
	return &rowStream{schema: projectSchema(hs, ords), close: cur.Close, next: func() ([]storage.Row, error) {
		b, err := cur.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		return b.Rows, nil
	}}
}

// coveringStream serves the statement from a key-ordered structure whose
// leaf carries every needed column. The structure's RID column rides along
// in the decode; unordered consumers get batches as pages decode (key
// order), ordered consumers get one RID-merged batch.
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
	strip := func(rows []storage.Row) []storage.Row {
		out := make([]storage.Row, len(rows))
		for i, r := range rows {
			nr := make(storage.Row, len(outIdx))
			for j, k := range outIdx {
				nr[j] = r[k]
			}
			out[i] = nr
		}
		return out
	}
	if !ordered {
		// Canonicalizing consumers don't care about row order: stream page
		// batches straight through, skipping order restoration entirely.
		return &rowStream{schema: outSchema, close: cur.Close, next: func() ([]storage.Row, error) {
			b, err := cur.NextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			return strip(b.Rows), nil
		}}, nil
	}
	// Insertion-order restoration: the structure delivers key order, so drain
	// and merge on the carried RID before handing rows downstream.
	type tagged struct {
		rid int64
		row storage.Row
	}
	var all []tagged
	for {
		b, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			all = append(all, tagged{rid: r[ridPos].Int, row: r})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rid < all[j].rid })
	rows := make([]storage.Row, len(all))
	for i, t := range all {
		rows[i] = t.row
	}
	return singleBatch(outSchema, strip(rows)), nil
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
	for {
		b, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			rids = append(rids, r[0].Int)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
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
	return &rowStream{schema: projectSchema(hs, ords), close: hcur.Close, next: func() ([]storage.Row, error) {
		b, err := hcur.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		return b.Rows, nil
	}}, nil
}
