package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"cadb/internal/bufferpool"
)

// SegmentWriter builds a disk-backed Segment from a stream of row batches
// without ever materializing all rows (or all page payloads) in memory — the
// out-of-core build path for tables too large to generate in one slice.
//
// Encoding is chunked but byte-identical to a whole-slice BuildSegment:
// every codec packs pages greedily (a page takes the longest prefix of the
// remaining rows whose encoding fits), and fit is monotone in row count, so
// any page that overflowed within a chunk is exactly the page a whole-slice
// encode would produce. Only the final page of a chunk is tentative — more
// rows might still have packed into it — so its rows are retained and
// re-encoded with the next batch; everything before it is flushed to a
// payload spool file immediately.
//
// Finish assembles the real segment file (header, directory, payloads) from
// the spool and returns a Segment already serving pages through the pool.
type SegmentWriter struct {
	schema *Schema
	codec  PageCodec
	path   string

	spool   *os.File // payload bytes of flushed pages, in order
	spoolAt uint64

	pending []Row // rows of the tentative tail page (plus any unencoded rows)

	entries  []segPageEntry // offsets are spool-relative until Finish
	pages    []EncodedPage  // metadata only; Payload stays nil
	rows     int64
	finished bool
}

// NewSegmentWriter starts an out-of-core segment build that will land at
// path. The payload spool lives next to the target file until Finish.
func NewSegmentWriter(path string, s *Schema, c PageCodec) (*SegmentWriter, error) {
	if c == nil {
		return nil, fmt.Errorf("storage: nil page codec")
	}
	spool, err := os.Create(path + ".spool")
	if err != nil {
		return nil, err
	}
	return &SegmentWriter{schema: s, codec: c, path: path, spool: spool}, nil
}

// Append adds a batch of rows to the segment. The writer retains references
// to at most the tail page's worth of them; callers may reuse nothing but
// must not mutate rows after handing them over.
func (w *SegmentWriter) Append(rows []Row) error {
	if w.finished {
		return fmt.Errorf("storage: Append after Finish")
	}
	w.pending = append(w.pending, rows...)
	return w.encodePending(false)
}

// encodePending encodes the buffered rows, flushing every page that is
// final: all of them when closing, all but the tentative tail otherwise.
func (w *SegmentWriter) encodePending(closing bool) error {
	if len(w.pending) == 0 {
		return nil
	}
	pages, err := w.codec.EncodeRows(w.schema, w.pending)
	if err != nil {
		return err
	}
	keep := 1 // the tail page is tentative until the stream ends
	if closing {
		keep = 0
	}
	if len(pages) <= keep {
		return nil
	}
	flushed := 0
	for i := range pages[:len(pages)-keep] {
		p := &pages[i]
		if _, err := w.spool.Write(p.Payload); err != nil {
			return err
		}
		w.entries = append(w.entries, segPageEntry{
			offset:    w.spoolAt,
			length:    uint32(len(p.Payload)),
			rows:      uint32(p.Rows),
			accounted: uint32(p.AccountedBytes),
			crc:       crc32.ChecksumIEEE(p.Payload),
		})
		w.spoolAt += uint64(len(p.Payload))
		w.pages = append(w.pages, EncodedPage{Rows: p.Rows, AccountedBytes: p.AccountedBytes})
		w.rows += int64(p.Rows)
		flushed += p.Rows
	}
	w.pending = append(w.pending[:0], w.pending[flushed:]...)
	return nil
}

// Rows returns the rows appended so far (flushed plus pending).
func (w *SegmentWriter) Rows() int64 { return w.rows + int64(len(w.pending)) }

// Abort discards the build, removing the spool. Safe after Finish (no-op).
func (w *SegmentWriter) Abort() {
	if w.spool != nil {
		_ = w.spool.Close() // the spool is being discarded either way
		os.Remove(w.spool.Name())
		w.spool = nil
	}
}

// Finish encodes the remaining rows, writes the final segment file at the
// writer's path, and returns a Segment serving its pages through the pool
// (equivalent to BuildSegment followed by Spill, without the resident rows).
func (w *SegmentWriter) Finish(pool *bufferpool.Pool) (*Segment, error) {
	if w.finished {
		return nil, fmt.Errorf("storage: Finish called twice")
	}
	if pool == nil {
		return nil, fmt.Errorf("storage: Finish needs a pool")
	}
	if err := w.encodePending(true); err != nil {
		w.Abort()
		return nil, err
	}
	w.finished = true

	header, sf, err := segHeader(w.path, w.codec, w.schema, w.entries, w.rows)
	if err != nil {
		w.Abort()
		return nil, err
	}

	f, err := os.Create(w.path)
	if err != nil {
		w.Abort()
		return nil, err
	}
	fail := func(err error) (*Segment, error) {
		_ = f.Close() // best-effort cleanup; err is the story
		os.Remove(w.path)
		w.Abort()
		return nil, err
	}
	if _, err := f.Write(header); err != nil {
		return fail(err)
	}
	if _, err := w.spool.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	if _, err := io.Copy(f, w.spool); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// The spool's bytes are already copied into f and synced; its close
	// error cannot affect the finished segment.
	_ = w.spool.Close()
	os.Remove(w.spool.Name())
	w.spool = nil

	adviseRandom(f)
	sf.f = f
	seg := &Segment{Schema: w.schema, Codec: w.codec, pages: w.pages, rows: w.rows}
	seg.starts = make([]int64, len(w.pages)+1)
	for i := range w.pages {
		seg.starts[i+1] = seg.starts[i] + int64(w.pages[i].Rows)
		seg.payloadBytes += int64(w.pages[i].AccountedBytes)
		seg.physPages += w.pages[i].PhysicalPages()
		seg.diskBytes += int64(w.entries[i].length)
	}
	if len(w.pages) > 0 {
		seg.stateBytes = int64(len(sf.state))
		seg.payloadBytes += seg.stateBytes
	}
	seg.backing = &segBacking{file: sf, pool: pool, fileID: pool.RegisterFile()}
	return seg, nil
}
