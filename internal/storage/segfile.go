package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"
)

// SegmentFile is the on-disk form of a Segment: a header carrying the codec
// name, the per-column design vector, the codec's segment state, page count
// and row count, a per-page directory (payload offset, length, row count,
// accounted bytes, CRC32), a header checksum, and then the raw page payloads.
// Pages are read back individually via ReadAt, so a buffer pool can fault in
// exactly the pages a query touches.
//
// Layout (all integers big-endian):
//
//	[0:8)    magic "CADBSEG2"
//	[8:12)   format version (2)
//	[12:16)  codec name length L
//	[16:16+L codec name
//	u16      column count; per column: u8 name length | name | u8 method
//	u32      state length, then the codec state block (global dictionaries)
//	u32      page count N
//	u64      row count
//	then N directory entries of 24 bytes each:
//	         offset u64 | length u32 | rows u32 | accounted u32 | crc32 u32
//	u32      CRC32 (IEEE) of everything before it
//	then the page payloads back to back, page 0 first, up to the file's end
//	(each directory offset is where the previous payload ends).
type SegmentFile struct {
	f         *os.File
	path      string
	codecName string
	rows      int64
	entries   []segPageEntry
	design    []SegColumnMethod // per-column method vector
	state     []byte            // codec state block (nil when empty)
}

// SegColumnMethod is one entry of the header's design vector: a column name
// and its compression-method byte (the compress.Method value).
type SegColumnMethod struct {
	Name   string
	Method byte
}

type segPageEntry struct {
	offset    uint64
	length    uint32
	rows      uint32
	accounted uint32
	crc       uint32
}

const (
	segMagic       = "CADBSEG2"
	segFileVersion = 2
)

// WriteSegmentFile writes the segment's pages to path (truncating any
// previous file) and returns an open handle for reads. The segment must
// still hold its payloads (i.e. not already be spilled).
func WriteSegmentFile(path string, seg *Segment) (*SegmentFile, error) {
	// The design vector first: it resolves the codec against the schema,
	// which is what fixes the codec's name.
	s := seg.Schema
	ids := seg.Codec.ColumnMethodIDs(s)
	state := seg.Codec.SegmentState()
	name := seg.Codec.Name()
	if len(name) > 255 {
		return nil, fmt.Errorf("storage: codec name %q too long", name)
	}
	if len(s.Columns) > 0xFFFF {
		return nil, fmt.Errorf("storage: design vector of %d columns", len(s.Columns))
	}
	h := append([]byte(nil), segMagic...)
	h = binary.BigEndian.AppendUint32(h, segFileVersion)
	h = binary.BigEndian.AppendUint32(h, uint32(len(name)))
	h = append(h, name...)
	h = binary.BigEndian.AppendUint16(h, uint16(len(s.Columns)))
	design := make([]SegColumnMethod, len(s.Columns))
	for i, col := range s.Columns {
		if len(col.Name) > 255 {
			return nil, fmt.Errorf("storage: column name %q too long", col.Name)
		}
		design[i] = SegColumnMethod{Name: col.Name, Method: ids[i]}
		h = append(h, byte(len(col.Name)))
		h = append(h, col.Name...)
		h = append(h, ids[i])
	}
	h = binary.BigEndian.AppendUint32(h, uint32(len(state)))
	h = append(h, state...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(seg.pages)))
	h = binary.BigEndian.AppendUint64(h, uint64(seg.rows))
	// Payloads follow the header back to back, in page order.
	entries := make([]segPageEntry, len(seg.pages))
	at := uint64(len(h) + 24*len(entries) + 4)
	for i := range seg.pages {
		p := &seg.pages[i]
		if p.Payload == nil && p.Rows > 0 {
			return nil, fmt.Errorf("storage: page %d has no payload (segment already spilled?)", i)
		}
		e := &entries[i]
		*e = segPageEntry{
			offset:    at,
			length:    uint32(len(p.Payload)),
			rows:      uint32(p.Rows),
			accounted: uint32(p.AccountedBytes),
			crc:       crc32.ChecksumIEEE(p.Payload),
		}
		at += uint64(e.length)
		h = binary.BigEndian.AppendUint64(h, e.offset)
		h = binary.BigEndian.AppendUint32(h, e.length)
		h = binary.BigEndian.AppendUint32(h, e.rows)
		h = binary.BigEndian.AppendUint32(h, e.accounted)
		h = binary.BigEndian.AppendUint32(h, e.crc)
	}
	h = binary.BigEndian.AppendUint32(h, crc32.ChecksumIEEE(h))

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(h); err != nil {
		_ = f.Close() // best-effort cleanup; the write error is the story
		return nil, err
	}
	for i := range seg.pages {
		if _, err := f.Write(seg.pages[i].Payload); err != nil {
			_ = f.Close() // best-effort cleanup; the write error is the story
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // best-effort cleanup; the sync error is the story
		return nil, err
	}
	adviseRandom(f)
	return &SegmentFile{f: f, path: path, codecName: name, rows: seg.rows, entries: entries, design: design, state: state}, nil
}

// OpenSegmentFile opens an existing segment file, validating the header
// checksum.
func OpenSegmentFile(path string) (*SegmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf, err := readSegHeader(f, path)
	if err != nil {
		_ = f.Close() // best-effort cleanup; the header error is the story
		return nil, err
	}
	adviseRandom(f)
	return sf, nil
}

// readSegHeader parses and checksums the header. Every length it reads is
// checked against the file's size before anything is allocated for it, and
// the directory must describe WriteSegmentFile's layout exactly, so a hostile
// header costs an error, not memory. The variable-length design and
// state blocks force incremental reads; every byte read is accumulated so the
// trailing CRC covers the whole header.
func readSegHeader(f *os.File, path string) (*SegmentFile, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	var hdr []byte
	read := func(n int64) ([]byte, error) {
		at := int64(len(hdr))
		if n > size-at {
			return nil, fmt.Errorf("storage: %s: header wants %d bytes at offset %d of a %d-byte file", path, n, at, size)
		}
		hdr = slices.Grow(hdr, int(n))[:at+n]
		if _, err := f.ReadAt(hdr[at:], at); err != nil {
			return nil, fmt.Errorf("storage: %s: short header: %w", path, err)
		}
		return hdr[at:], nil
	}
	fixed, err := read(16)
	if err != nil {
		return nil, err
	}
	if magic := string(fixed[:8]); magic != segMagic {
		if strings.HasPrefix(magic, segMagic[:7]) {
			return nil, fmt.Errorf("storage: %s: unsupported segment format %q (only %s is read)", path, magic, segMagic)
		}
		return nil, fmt.Errorf("storage: %s: bad magic", path)
	}
	if v := binary.BigEndian.Uint32(fixed[8:12]); v != segFileVersion {
		return nil, fmt.Errorf("storage: %s: unsupported version %d", path, v)
	}
	nameLen := int64(binary.BigEndian.Uint32(fixed[12:16]))
	if nameLen > 255 {
		return nil, fmt.Errorf("storage: %s: codec name length %d", path, nameLen)
	}
	b, err := read(nameLen + 2)
	if err != nil {
		return nil, err
	}
	name := string(b[:nameLen])
	colCount := int64(binary.BigEndian.Uint16(b[nameLen:]))
	if 2*colCount > size-int64(len(hdr)) { // a column is at least 2 bytes
		return nil, fmt.Errorf("storage: %s: design vector of %d columns in a %d-byte file", path, colCount, size)
	}
	design := make([]SegColumnMethod, colCount)
	for i := range design {
		lb, err := read(1)
		if err != nil {
			return nil, err
		}
		nb, err := read(int64(lb[0]) + 1)
		if err != nil {
			return nil, err
		}
		design[i] = SegColumnMethod{Name: string(nb[:len(nb)-1]), Method: nb[len(nb)-1]}
	}
	sb, err := read(4)
	if err != nil {
		return nil, err
	}
	var state []byte
	if stateLen := int64(binary.BigEndian.Uint32(sb)); stateLen > 0 {
		if state, err = read(stateLen); err != nil {
			return nil, err
		}
		state = bytes.Clone(state) // not a window onto the header buffer
	}
	cb, err := read(4 + 8)
	if err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(cb[:4]))
	rows := int64(binary.BigEndian.Uint64(cb[4:]))
	dir, err := read(24 * n)
	if err != nil {
		return nil, err
	}
	entries := parseSegDir(dir, int(n))
	sum := crc32.ChecksumIEEE(hdr)
	cs, err := read(4)
	if err != nil {
		return nil, err
	}
	if sum != binary.BigEndian.Uint32(cs) {
		return nil, fmt.Errorf("storage: %s: header checksum mismatch", path)
	}
	// WriteSegmentFile's layout is the only one: payloads back to back from
	// the header's end to the file's. Holding every directory entry to it is
	// what bounds each read by the file size.
	at := uint64(len(hdr))
	for i, e := range entries {
		if e.offset != at {
			return nil, fmt.Errorf("storage: %s: page %d at offset %d, want %d", path, i, e.offset, at)
		}
		at += uint64(e.length)
	}
	if at != uint64(size) {
		return nil, fmt.Errorf("storage: %s: payloads end at %d of a %d-byte file", path, at, size)
	}
	return &SegmentFile{f: f, path: path, codecName: name, rows: rows, entries: entries, design: design, state: state}, nil
}

// parseSegDir decodes the n directory entries dir holds.
func parseSegDir(dir []byte, n int) []segPageEntry {
	entries := make([]segPageEntry, n)
	for i := range entries {
		e := dir[24*i:]
		entries[i] = segPageEntry{
			offset:    binary.BigEndian.Uint64(e[0:8]),
			length:    binary.BigEndian.Uint32(e[8:12]),
			rows:      binary.BigEndian.Uint32(e[12:16]),
			accounted: binary.BigEndian.Uint32(e[16:20]),
			crc:       binary.BigEndian.Uint32(e[20:24]),
		}
	}
	return entries
}

// NumPages returns the page count.
func (sf *SegmentFile) NumPages() int { return len(sf.entries) }

// Rows returns the total row count.
func (sf *SegmentFile) Rows() int64 { return sf.rows }

// CodecName returns the codec method name recorded in the header.
func (sf *SegmentFile) CodecName() string { return sf.codecName }

// Design returns the per-column method vector recorded in the header.
func (sf *SegmentFile) Design() []SegColumnMethod { return sf.design }

// State returns the codec state block recorded in the header (nil for designs
// without a GDICT column). Feed it to the codec's LoadSegmentState to decode
// the file's pages in a fresh process.
func (sf *SegmentFile) State() []byte { return sf.state }

// Path returns the file path.
func (sf *SegmentFile) Path() string { return sf.path }

// PageRows returns the row count of page i without reading it.
func (sf *SegmentFile) PageRows(i int) int { return int(sf.entries[i].rows) }

// PayloadBytes returns the total on-disk payload bytes across all pages —
// the working-set size a buffer pool is dimensioned against.
func (sf *SegmentFile) PayloadBytes() int64 {
	var n int64
	for i := range sf.entries {
		n += int64(sf.entries[i].length)
	}
	return n
}

// ReadPage reads page i's payload via ReadAt and verifies its checksum.
func (sf *SegmentFile) ReadPage(i int) ([]byte, error) {
	if i < 0 || i >= len(sf.entries) {
		return nil, fmt.Errorf("storage: %s: page %d of %d", sf.path, i, len(sf.entries))
	}
	e := sf.entries[i]
	buf := make([]byte, e.length)
	if e.length > 0 {
		if _, err := sf.f.ReadAt(buf, int64(e.offset)); err != nil {
			return nil, fmt.Errorf("storage: %s: page %d: %w", sf.path, i, err)
		}
	}
	if got := crc32.ChecksumIEEE(buf); got != e.crc {
		return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
	}
	return buf, nil
}

// ReadPageSpan reads pages [lo, hi) in one ReadAt over their contiguous file
// range and returns the per-page payloads, each checksum-verified and copied
// out of the span buffer (so a buffer pool admitting individual pages never
// retains the whole span). Page payloads lie back to back (readSegHeader
// holds every file to that), which is what makes the single large read
// possible — coalescing is the point: one span read runs at sequential-disk
// bandwidth where hi-lo individual page reads would each pay a seek-sized
// latency.
func (sf *SegmentFile) ReadPageSpan(lo, hi int) ([][]byte, error) {
	if lo < 0 || hi > len(sf.entries) || lo >= hi {
		return nil, fmt.Errorf("storage: %s: page span [%d,%d) of %d", sf.path, lo, hi, len(sf.entries))
	}
	first, last := sf.entries[lo], sf.entries[hi-1]
	start := first.offset
	end := last.offset + uint64(last.length)
	buf := make([]byte, end-start)
	if len(buf) > 0 {
		if _, err := sf.f.ReadAt(buf, int64(start)); err != nil {
			return nil, fmt.Errorf("storage: %s: pages [%d,%d): %w", sf.path, lo, hi, err)
		}
	}
	out := make([][]byte, hi-lo)
	for i := lo; i < hi; i++ {
		e := sf.entries[i]
		rel := e.offset - start
		page := buf[rel : rel+uint64(e.length)]
		if got := crc32.ChecksumIEEE(page); got != e.crc {
			return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
		}
		out[i-lo] = append([]byte(nil), page...)
	}
	return out, nil
}

// Close closes the underlying file.
func (sf *SegmentFile) Close() error { return sf.f.Close() }

// Remove closes and deletes the file.
func (sf *SegmentFile) Remove() error {
	err := sf.f.Close()
	if rmErr := os.Remove(sf.path); err == nil {
		err = rmErr
	}
	return err
}
