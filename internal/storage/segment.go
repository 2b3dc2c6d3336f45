package storage

import (
	"fmt"
	"sync/atomic"

	"cadb/internal/bufferpool"
)

// PageCodec turns rows into physical page payloads and back. The one
// implementation is the per-column design codec of internal/compress; it
// owns the packing policy, so order-dependent methods can scope their
// page-local dictionaries to the physical page. An instance serves one
// segment: it carries that segment's state (global dictionaries), which
// stays in memory for the segment's life, spilled or not.
type PageCodec interface {
	// Name is the method every column is stored under ("NONE", "ROW",
	// "PAGE", "GDICT", "RLE"), or "MIXED" when columns differ.
	Name() string
	// EncodeRows packs the segment's rows — all of them, in one call — into
	// page payloads, so a codec can make segment-scoped decisions (build a
	// global dictionary, elect per-column fallbacks) from complete
	// information. Each payload must be decodable on its own (given the
	// codec's segment state).
	EncodeRows(s *Schema, rows []Row) ([]EncodedPage, error)
	// NewDecoder compiles a column-selective decoder for the spec: one per
	// cursor, fed every page the cursor visits. A spec naming a column the
	// schema lacks fails at the first Decode.
	NewDecoder(s *Schema, spec *DecodeSpec) PageDecoder
	// StateBytes is the size of the segment state pages alone cannot
	// reproduce, counted as if serialized (0 when the design has none). The
	// size model charges it, so BuildSegment adds it to PayloadBytes.
	StateBytes() int64
}

// PageDecoder is a decode plan compiled from one (schema, spec) pair. It owns
// its working memory, so it serves one goroutine.
type PageDecoder interface {
	// Decode reconstructs only the spec.Needed columns of the page's rows
	// that satisfy spec's predicates and, when slots is non-nil, sit on one
	// of the listed page-local slots (strictly ascending); the returned
	// counters report the work actually done. A full decode is every ordinal
	// in spec.Needed, no predicate and nil slots. The returned page — rows
	// included — is valid until the next Decode: a caller keeping rows longer
	// copies them.
	Decode(payload []byte, nrows int, slots []int) (*DecodedPage, error)
}

// EncodedPage is one materialized page: the real payload bytes plus the
// slot-array accounting the size model charges per row.
type EncodedPage struct {
	// Payload is the encoded page body. It is at most UsablePageBytes except
	// for an overflow run holding a single oversized row.
	Payload []byte
	// Rows is the number of rows encoded in the payload.
	Rows int
	// AccountedBytes is payload plus per-row slot overhead — the number the
	// size model (compress.DesignSizes) is diffed against.
	AccountedBytes int
}

// PhysicalPages returns the number of fixed-size pages the payload occupies
// (usually 1; more for an overflow run).
func (p *EncodedPage) PhysicalPages() int64 {
	n := PagesForBytes(int64(p.AccountedBytes))
	if n < 1 {
		n = 1
	}
	return n
}

// Segment is a materialized page store: rows encoded into real pages by a
// codec. Segments are immutable once built; decoding a page reproduces the
// original rows (up to the codec's documented CHAR(n) normalization).
type Segment struct {
	Schema *Schema
	Codec  PageCodec

	pages        []EncodedPage
	starts       []int64 // starts[i] is the row offset of page i's first row
	rows         int64
	payloadBytes int64
	physPages    int64
	diskBytes    int64 // raw payload bytes (what a spill file stores)
	stateBytes   int64 // codec state size (global dictionaries)

	// backing, when set, serves page payloads from disk through a buffer
	// pool instead of memory (see Spill).
	backing *segBacking
}

// segBacking is the disk-backed payload source of a spilled segment. closed
// is atomic because cursor goroutines (scans, prefetch workers) check it
// while a writer may be closing the backing: the flag flips before the pool
// frames are invalidated and the file removed, so any load that slips past
// the check is poisoned by InvalidateFile or fails on the closed fd — stale
// bytes can never be admitted.
type segBacking struct {
	file   *spillFile
	pool   *bufferpool.Pool
	fileID uint64
	closed atomic.Bool
}

// BuildSegment encodes the rows into a segment using the codec. The codec's
// state size is charged into PayloadBytes (its dictionaries are real bytes
// the size model must see) but not into DiskBytes: the state never leaves
// memory, so it is not pool working set.
func BuildSegment(s *Schema, rows []Row, c PageCodec) (*Segment, error) {
	if c == nil {
		return nil, fmt.Errorf("storage: nil page codec")
	}
	pages, err := c.EncodeRows(s, rows)
	if err != nil {
		return nil, err
	}
	seg := &Segment{Schema: s, Codec: c, pages: pages}
	seg.starts = make([]int64, len(pages)+1)
	for i := range pages {
		seg.starts[i+1] = seg.starts[i] + int64(pages[i].Rows)
		seg.rows += int64(pages[i].Rows)
		seg.payloadBytes += int64(pages[i].AccountedBytes)
		seg.physPages += pages[i].PhysicalPages()
		seg.diskBytes += int64(len(pages[i].Payload))
	}
	if seg.rows != int64(len(rows)) {
		return nil, fmt.Errorf("storage: codec %s encoded %d of %d rows", c.Name(), seg.rows, len(rows))
	}
	if len(pages) > 0 {
		seg.stateBytes = c.StateBytes()
		seg.payloadBytes += seg.stateBytes
	}
	return seg, nil
}

// NumPages returns the number of encoded pages (overflow runs count once).
func (g *Segment) NumPages() int { return len(g.pages) }

// PhysicalPages returns the total fixed-size page count, the number page-read
// accounting and the size model's page estimates are diffed against.
func (g *Segment) PhysicalPages() int64 { return g.physPages }

// Rows returns the total row count.
func (g *Segment) Rows() int64 { return g.rows }

// PayloadBytes returns the accounted payload size (encoded bytes plus slot
// overhead, plus the codec state's size), comparable to the size model
// (compress.DesignSizes).
func (g *Segment) PayloadBytes() int64 { return g.payloadBytes }

// StateBytes returns the codec-state size included in PayloadBytes (0 for
// designs without a GDICT column).
func (g *Segment) StateBytes() int64 { return g.stateBytes }

// Page returns the i-th encoded page.
func (g *Segment) Page(i int) *EncodedPage { return &g.pages[i] }

// PageRows returns the row count of page i without decoding it.
func (g *Segment) PageRows(i int) int { return g.pages[i].Rows }

// PageStartRow returns the row offset (RID within the segment) of page i's
// first row. PageStartRow(NumPages()) is the total row count.
func (g *Segment) PageStartRow(i int) int64 { return g.starts[i] }

// PageForRow returns the page holding the given row offset, or -1 when the
// offset is out of range.
func (g *Segment) PageForRow(rid int64) int {
	if rid < 0 || rid >= g.rows {
		return -1
	}
	// Binary search the page whose [start, start+rows) range covers rid.
	lo, hi := 0, len(g.pages)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.starts[mid+1] > rid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// DiskBytes returns the raw payload bytes of the segment — the size of its
// spill file, and the working-set size a buffer pool holds when every page is
// resident.
func (g *Segment) DiskBytes() int64 { return g.diskBytes }

// Spill writes the segment's page payloads to a file at path and switches
// payload fetches to go through the pool: in-memory payloads are released,
// and every later page access pins the page in the pool (loading it from
// disk on a miss). The file holds the payloads and nothing else; page
// metadata (row counts, accounted bytes, low keys held by the index level)
// and the codec's state stay in memory.
func (g *Segment) Spill(path string, pool *bufferpool.Pool) error {
	if pool == nil {
		return fmt.Errorf("storage: Spill needs a pool")
	}
	if g.backing != nil {
		return fmt.Errorf("storage: segment already spilled to %s", g.backing.file.path)
	}
	sf, err := writeSpillFile(path, g.pages)
	if err != nil {
		return err
	}
	g.backing = &segBacking{file: sf, pool: pool, fileID: pool.RegisterFile()}
	for i := range g.pages {
		g.pages[i].Payload = nil
	}
	return nil
}

// Repool switches a spilled segment to a different buffer pool (frames in
// the old pool are invalidated). The on-disk file is reused, so sweeping
// pool sizes over one segment doesn't re-encode or re-write anything.
func (g *Segment) Repool(pool *bufferpool.Pool) error {
	if g.backing == nil {
		return fmt.Errorf("storage: Repool on an in-memory segment")
	}
	if g.backing.closed.Load() {
		return fmt.Errorf("storage: Repool on a closed segment backing")
	}
	g.backing.pool.InvalidateFile(g.backing.fileID)
	g.backing.pool = pool
	g.backing.fileID = pool.RegisterFile()
	return nil
}

// Backed reports whether the segment serves payloads from disk.
func (g *Segment) Backed() bool { return g.backing != nil }

// CloseBacking invalidates a spilled segment: its pool frames are dropped,
// the on-disk file is removed, and every later FetchPage fails. Writes call
// this when the segment's rows went stale — the guard that a cursor holding
// the old segment can never read pre-write pages back out of the pool.
func (g *Segment) CloseBacking() {
	if g.backing == nil || g.backing.closed.Swap(true) {
		return
	}
	// Order matters: closed is already set, so no new fetch or prefetch
	// starts; InvalidateFile poisons loads already in flight; remove closes
	// the fd so any straggling ReadAt errors instead of reading.
	g.backing.pool.InvalidateFile(g.backing.fileID)
	g.backing.file.remove()
}

// FetchPage returns page i's payload and a release func the caller must
// invoke when done decoding. In-memory segments return the resident payload
// (release is a no-op and io is untouched); spilled segments pin the page in
// the pool, counting the hit or miss (and miss bytes) into io.
func (g *Segment) FetchPage(i int, io *IOStats) ([]byte, func(), error) {
	b := g.backing
	if b == nil {
		return g.pages[i].Payload, func() {}, nil
	}
	if b.closed.Load() {
		return nil, nil, fmt.Errorf("storage: stale segment: backing file was invalidated by a write")
	}
	k := bufferpool.Key{File: b.fileID, Page: i}
	data, hit, err := b.pool.Get(k, b.loadPage(i))
	if err != nil {
		return nil, nil, err
	}
	if io != nil {
		if hit {
			io.PoolHits++
		} else {
			io.PoolMisses++
			io.BytesRead += int64(len(data))
		}
	}
	return data, func() { b.pool.Unpin(k) }, nil
}

// loadPage builds the pool load closure for page i. The closed re-check
// after the read narrows the stale-bytes window: a read that completed just
// before CloseBacking still fails here instead of being admitted.
func (b *segBacking) loadPage(i int) func() ([]byte, error) {
	return func() ([]byte, error) {
		data, err := b.file.readPage(i)
		if err == nil && b.closed.Load() {
			return nil, fmt.Errorf("storage: stale segment: backing file was invalidated by a write")
		}
		return data, err
	}
}

// PrefetchSpan speculatively loads pages [lo, hi) into the pool (unpinned)
// with at most one coalesced span read: the first page that is actually
// missing triggers a single ReadAt covering the whole span, and every other
// missing page is admitted from that buffer. Resident or in-flight pages are
// skipped. Returns the pages and payload bytes actually admitted; errors are
// for accounting only — a failed prefetch is harmless, the pages simply stay
// cold.
func (g *Segment) PrefetchSpan(lo, hi int) (pages int, bytes int64, err error) {
	b := g.backing
	if b == nil || b.closed.Load() {
		return 0, 0, nil
	}
	var span [][]byte
	var spanErr error
	readSpan := func() {
		span, spanErr = b.file.readPageSpan(lo, hi)
		if spanErr == nil && b.closed.Load() {
			span, spanErr = nil, fmt.Errorf("storage: stale segment: backing file was invalidated by a write")
		}
	}
	for i := lo; i < hi; i++ {
		i := i
		n, perr := b.pool.Prefetch(bufferpool.Key{File: b.fileID, Page: i}, func() ([]byte, error) {
			if span == nil && spanErr == nil {
				readSpan()
			}
			if spanErr != nil {
				return nil, spanErr
			}
			return span[i-lo], nil
		})
		if perr != nil && err == nil {
			err = perr
		}
		if n > 0 {
			pages++
			bytes += n
		}
	}
	return pages, bytes, err
}
