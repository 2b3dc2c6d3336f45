package index

import (
	"slices"

	"cadb/internal/storage"
)

// Batch is one page's worth of cursor output: the surviving rows projected
// onto the cursor's needed columns, in page order. The batch and its rows
// belong to the cursor and are overwritten by the next NextBatch; a consumer
// that keeps rows longer copies them. Structures that are not in insertion
// order carry the RID as a column, and the access path that needs the order
// back sorts on it.
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
type Cursor struct {
	seg    *storage.Segment
	dec    storage.PageDecoder
	batch  Batch
	work   []pageWork
	at     int
	io     *storage.IOStats
	pf     *storage.Prefetcher
	pfBase int // work index the prefetch plan starts at
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
	return &Cursor{seg: si.Seg, dec: si.Seg.Codec.NewDecoder(si.Seg.Schema, spec), work: work, io: io}
}

// RIDCursor streams exactly the rows at the given segment offsets (sorted
// ascending), visiting each page once with a slot filter — the batched heap
// lookup half of a non-covering index seek.
func (si *SegmentIndex) RIDCursor(rids []int64, spec *storage.DecodeSpec, io *storage.IOStats) *Cursor {
	if !slices.IsSorted(rids) {
		rids = slices.Clone(rids)
		slices.Sort(rids)
	}
	var work []pageWork
	for i := 0; i < len(rids); {
		p := si.Seg.PageForRow(rids[i])
		if p < 0 {
			i++
			continue
		}
		start := si.Seg.PageStartRow(p)
		end := start + int64(si.Seg.PageRows(p))
		var slots []int
		for ; i < len(rids) && rids[i] < end; i++ {
			sl := int(rids[i] - start)
			if len(slots) == 0 || slots[len(slots)-1] != sl {
				slots = append(slots, sl)
			}
		}
		work = append(work, pageWork{page: p, slots: slots})
	}
	return si.cursor(spec, work, io)
}

// NumPages returns how many pages the cursor will visit in total.
func (c *Cursor) NumPages() int { return len(c.work) }

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
		dp, err := c.dec.Decode(payload, c.seg.PageRows(w.page), w.slots)
		release()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.io.PagesDecoded++
		c.io.TuplesDecoded += dp.TuplesDecoded
		c.io.ColumnsDecoded += dp.ColumnsDecoded
		if len(dp.Rows) == 0 {
			continue
		}
		c.batch.Rows = dp.Rows
		return &c.batch, nil
	}
	c.Close()
	return nil, nil
}
