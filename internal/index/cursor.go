package index

import (
	"fmt"
	"slices"

	"cadb/internal/storage"
)

// Batch is one page's worth of cursor output: the surviving rows projected
// onto the cursor's needed columns, in page order. The batch and its rows
// belong to the cursor and are overwritten by the next NextBatch; a consumer
// that keeps rows longer copies them. Structures that are not in insertion
// order carry the RID as a column, which a non-covering seek reads to look
// its rows up in the table's base structure (RIDCursor).
type Batch struct {
	Rows []storage.Row
}

// pageWork is one page visit: slots == nil decodes the whole page, otherwise
// only the listed slots (ascending).
type pageWork struct {
	page  int
	slots []int
}

// Cursor streams column-selective page decodes out of a segment index,
// through one decoder compiled from its spec. Each NextBatch call reads and
// decodes pages until one yields rows (pages whose rows are all filtered out
// by the pushed predicates cost their read and a metadata-level decode, but
// materialize nothing). I/O is accounted into the stats sink as it happens,
// so a partially consumed cursor reports only the work actually done.
//
// A cursor over a structure with an overlay (SegmentIndex.Overlay) serves
// each overlaid row from the overlay, not from its page: the page is read
// once as before, its other slots decode with pushdown through the slot
// list, and the overlaid rows are tested against the same predicates and
// projected onto the same columns.
type Cursor struct {
	seg    *storage.Segment
	dec    storage.PageDecoder
	batch  Batch
	work   []pageWork
	at     int
	io     *storage.IOStats
	pf     *storage.Prefetcher
	pfBase int // work index the prefetch plan starts at

	// The overlay the cursor opened with, and the page-local buffers that
	// merge it: the slots left to decode, the overlay entries a page
	// serves, and the batch rows and values the merge lends out.
	ov    *overlay
	spec  *storage.DecodeSpec
	slots []int
	serve []int
	rows  []storage.Row
	vals  []storage.Value
}

// ScanCursor streams every page in order — the full-scan access path.
func (si *SegmentIndex) ScanCursor(spec *storage.DecodeSpec, io *storage.IOStats) *Cursor {
	return si.PageRangeCursor(0, si.Seg.NumPages(), spec, io)
}

// PageRangeCursor streams the half-open page range [lo, hi).
func (si *SegmentIndex) PageRangeCursor(lo, hi int, spec *storage.DecodeSpec, io *storage.IOStats) *Cursor {
	work := make([]pageWork, 0, hi-lo)
	for p := lo; p < hi; p++ {
		work = append(work, pageWork{page: p})
	}
	return si.cursor(spec, work, io)
}

func (si *SegmentIndex) cursor(spec *storage.DecodeSpec, work []pageWork, io *storage.IOStats) *Cursor {
	return &Cursor{seg: si.Seg, dec: si.Seg.Codec.NewDecoder(si.Seg.Schema, spec), work: work, io: io, ov: si.ov, spec: spec}
}

// RIDCursor streams exactly the rows of the given base RIDs, visiting each
// page once with a slot filter — the batched lookup half of a non-covering
// index seek. On a heap a RID is its row's position; any other structure maps
// it through pos, so only one that keeps positions serves lookups. The rows
// come in page order; RIDs outside the table are skipped.
func (si *SegmentIndex) RIDCursor(rids []int64, spec *storage.DecodeSpec, io *storage.IOStats) (*Cursor, error) {
	if si.pos == nil && (!si.Def.Clustered || len(si.Def.KeyCols) > 0) {
		return nil, fmt.Errorf("index: %s keeps no RID positions to look rows up by", si.Def)
	}
	at := slices.Clone(rids)
	if si.pos != nil {
		for i, rid := range rids {
			at[i] = -1
			if rid >= 0 && rid < int64(len(si.pos)) {
				at[i] = int64(si.pos[rid])
			}
		}
	}
	slices.Sort(at)
	var work []pageWork
	for i := 0; i < len(at); {
		p := si.Seg.PageForRow(at[i])
		if p < 0 {
			i++
			continue
		}
		start := si.Seg.PageStartRow(p)
		end := start + int64(si.Seg.PageRows(p))
		var slots []int
		for ; i < len(at) && at[i] < end; i++ {
			sl := int(at[i] - start)
			if len(slots) == 0 || slots[len(slots)-1] != sl {
				slots = append(slots, sl)
			}
		}
		work = append(work, pageWork{page: p, slots: slots})
	}
	return si.cursor(spec, work, io), nil
}

// NumPages returns how many pages the cursor will visit in total.
func (c *Cursor) NumPages() int { return len(c.work) }

// MaxRows returns the most rows the cursor can yield: those of the pages it
// visits, or of the slots it visits on them.
func (c *Cursor) MaxRows() int64 {
	var n int64
	for _, w := range c.work {
		if w.slots != nil {
			n += int64(len(w.slots))
		} else {
			n += int64(c.seg.PageRows(w.page))
		}
	}
	return n
}

// EnablePrefetch starts async readahead over the cursor's page visit order
// (a no-op for in-memory segments, a non-positive window or worker count, or
// once no pages remain). The cursor advances the readahead frontier as it
// consumes pages and flushes the prefetch accounting into its stats sink on
// Close/exhaustion.
func (c *Cursor) EnablePrefetch(window, workers int) {
	if c.pf != nil || c.at >= len(c.work) || window < 1 || workers < 1 || !c.seg.Backed() {
		return
	}
	plan := make([]int, 0, len(c.work)-c.at)
	for _, w := range c.work[c.at:] {
		plan = append(plan, w.page)
	}
	c.pf = storage.StartPrefetchPlan(c.seg, plan, window, workers)
	c.pfBase = c.at
}

// Close releases the cursor's readahead (idempotent; automatic at
// exhaustion). Callers abandoning a cursor early must call it.
func (c *Cursor) Close() {
	if c.pf != nil {
		c.pf.Close(c.io)
		c.pf = nil
	}
}

// NextBatch returns the next non-empty batch, or nil when the cursor is
// exhausted. The batch is valid until the next call.
func (c *Cursor) NextBatch() (*Batch, error) {
	for c.at < len(c.work) {
		c.pf.Advance(c.at - c.pfBase)
		w := c.work[c.at]
		c.at++
		c.io.PageReads += c.seg.Page(w.page).PhysicalPages()
		payload, release, err := c.seg.FetchPage(w.page, c.io)
		if err != nil {
			c.Close()
			return nil, err
		}
		slots := c.split(w)
		dp, err := c.dec.Decode(payload, c.seg.PageRows(w.page), slots)
		release()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.io.PagesDecoded++
		c.io.TuplesDecoded += dp.TuplesDecoded
		c.io.ColumnsDecoded += dp.ColumnsDecoded
		rows := dp.Rows
		if len(c.serve) > 0 {
			rows = c.merge(dp.Rows)
			c.io.TuplesDecoded += int64(len(rows) - len(dp.Rows))
		}
		if len(rows) == 0 {
			continue
		}
		c.batch.Rows = rows
		return &c.batch, nil
	}
	c.Close()
	return nil, nil
}

// split returns the slots of the page visit the decoder must still decode,
// and leaves in c.serve the overlay entries that stand in for the rest.
// Without overlaid rows on the page that is the visit's own slot list; with
// them it is never nil, since nil would decode the whole page. Finding the
// page's entries is a binary search, so a page without any costs no more
// than that.
func (c *Cursor) split(w pageWork) []int {
	c.serve = c.serve[:0]
	if c.ov == nil {
		return w.slots
	}
	start := int32(c.seg.PageStartRow(w.page))
	n := c.seg.PageRows(w.page)
	k, _ := slices.BinarySearch(c.ov.pos, start)
	end, _ := slices.BinarySearch(c.ov.pos[k:], start+int32(n))
	end += k
	if k == end {
		return w.slots
	}
	if c.slots == nil {
		c.slots = make([]int, 0, n)
	}
	c.slots = c.slots[:0]
	visit := func(sl int) {
		for k < end && int(c.ov.pos[k]-start) < sl {
			k++
		}
		if k < end && int(c.ov.pos[k]-start) == sl {
			c.serve = append(c.serve, k)
			return
		}
		c.slots = append(c.slots, sl)
	}
	if w.slots == nil {
		for sl := 0; sl < n; sl++ {
			visit(sl)
		}
	} else {
		for _, sl := range w.slots {
			visit(sl)
		}
	}
	return c.slots
}

// merge appends to the page's decoded rows the overlay rows in c.serve that
// pass the pushed predicates, projected onto the needed columns, and
// returns them all as one batch.
func (c *Cursor) merge(decoded []storage.Row) []storage.Row {
	w := len(c.spec.Needed)
	c.vals = slices.Grow(c.vals[:0], len(c.serve)*w)[:len(c.serve)*w]
	c.rows = append(c.rows[:0], decoded...)
	kept := 0
	for _, k := range c.serve {
		row := c.ov.rows[k]
		if !passes(c.spec.Preds, row) {
			continue
		}
		out := c.vals[kept*w : (kept+1)*w : (kept+1)*w]
		for j, ci := range c.spec.Needed {
			out[j] = row[ci]
		}
		c.rows = append(c.rows, out)
		kept++
	}
	return c.rows
}

// passes reports whether a leaf row satisfies every pushed predicate.
func passes(preds []storage.ColPredicate, row storage.Row) bool {
	for _, p := range preds {
		if !p.Matches(row[p.Col]) {
			return false
		}
	}
	return true
}
