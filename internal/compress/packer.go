package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"cadb/internal/storage"
)

// This file holds the codec's page packer. Pages pack by compressed fit, the
// way a bulk load fills compressed leaves: a page takes the longest prefix of
// the remaining rows whose encoding still fits, so a page-local dictionary's
// scope is the physical page. The fit is found without trial encodes: every
// section format has an exact size that can be maintained incrementally as
// rows are appended (O(1) per value; a PAGE section re-sums its distinct
// values only when its common prefix shrinks), so a page costs one sizing
// pass plus one real encode.

// pageLayout is what the packer needs to know about a design's pages.
type pageLayout struct {
	methods []Method      // per-column section method, schema order
	dicts   []*gdictState // per-column global dictionary; nil for non-GDICT
	slotted bool          // the page pays the per-row slot array
}

// maxPageRows is the most rows one page holds: the row count is a u16.
const maxPageRows = 0xFFFF

// packer packs one row stream into pages. Sizers, section buffers and
// dictionary scratch are reused from page to page.
type packer struct {
	s      *storage.Schema
	lay    pageLayout
	sizers []colSizer
	passes int // row-set walks so far, sizing and encoding alike (test budget)

	body, scratch []byte
	codes         []int
	page          pageColScratch
}

func newPacker(s *storage.Schema, lay pageLayout) *packer {
	return &packer{s: s, lay: lay, sizers: make([]colSizer, len(s.Columns))}
}

func (p *packer) slotBytes(k int) int {
	if p.lay.slotted {
		return k * storage.SlotSize
	}
	return 0 // pure-RLE segments store runs, not slotted rows
}

// pack encodes the rows into pages, each holding the maximal fitting prefix
// of what remains (a single oversized row becomes an overflow run).
func (p *packer) pack(rows []storage.Row) ([]storage.EncodedPage, error) {
	var out []storage.EncodedPage
	for start := 0; start < len(rows); {
		k, size := p.fill(rows[start:])
		payload, err := p.encodeGroup(rows[start:start+k], size)
		if err != nil {
			return nil, err
		}
		if len(payload) != size {
			return nil, fmt.Errorf("compress: page of %d rows sized at %d bytes encoded to %d", k, size, len(payload))
		}
		out = append(out, storage.EncodedPage{
			Payload:        payload,
			Rows:           k,
			AccountedBytes: size + p.slotBytes(k),
		})
		start += k
	}
	return out, nil
}

// fill sizes the next page: it returns the largest row count (at least 1, at
// most maxPageRows) whose encoding fits a page, and that encoding's size.
func (p *packer) fill(rows []storage.Row) (int, int) {
	p.passes++
	for ci := range p.sizers {
		p.sizers[ci].reset()
	}
	k, size := 0, 0
	for k < len(rows) && k < maxPageRows {
		next := 2 // u16 row count
		for ci, c := range p.s.Columns {
			m, st := p.lay.methods[ci], p.lay.dicts[ci]
			p.scratch = p.sizers[ci].add(m, st, c, rows[k][ci], p.scratch)
			sec := p.sizers[ci].size(m, st, k+1)
			next += lenPrefixLen(sec) + sec
		}
		if k > 0 && next+p.slotBytes(k+1) > storage.UsablePageBytes {
			break
		}
		k, size = k+1, next
	}
	return k, size
}

// encodeGroup encodes one page: the row count, then each column's
// length-framed section. sizeHint presizes the payload.
func (p *packer) encodeGroup(rows []storage.Row, sizeHint int) ([]byte, error) {
	p.passes++
	n := len(rows)
	if n > maxPageRows {
		return nil, fmt.Errorf("compress: page group of %d rows", n)
	}
	payload := make([]byte, 2, max(sizeHint, 2))
	binary.BigEndian.PutUint16(payload, uint16(n))
	for ci, c := range p.s.Columns {
		dst := p.body[:0]
		var err error
		switch m := p.lay.methods[ci]; m {
		case None:
			dst = appendNoneSection(dst, c, rows, ci)
		case Row:
			dst, p.scratch = appendRowSection(dst, c, rows, ci, p.scratch)
		case Page:
			dst, err = p.page.appendColumn(dst, c, rows, ci)
		case GlobalDict:
			dst = p.appendGDictSection(dst, c, rows, ci)
		case RLE:
			dst, p.scratch = appendRLESection(dst, c, rows, ci, p.scratch)
		default:
			err = fmt.Errorf("compress: bad column method %d", m)
		}
		if err != nil {
			return nil, err
		}
		p.body = dst
		payload = append(appendLenPrefix(payload, len(dst)), dst...)
	}
	return payload, nil
}

// colSizer is the running exact size of one column's section over the rows
// added since reset. Only the fields of the column's method are in use.
type colSizer struct {
	bytes   int // row-count-independent body bytes: values, run headers
	nonNull int

	maxCode int // GDICT: largest code seen

	run     []byte // RLE: the open run's value
	runLen  int
	runNull bool

	page pageColSizer
}

func (z *colSizer) reset() {
	z.bytes, z.nonNull, z.maxCode, z.runLen = 0, 0, 0, 0
	z.page.reset()
}

// add accounts one more row's value. scratch carries the value's minimal
// encoding and is returned for reuse.
func (z *colSizer) add(m Method, st *gdictState, c storage.Column, v storage.Value, scratch []byte) []byte {
	if m == None {
		z.bytes += storage.EncodedValueSize(c, v)
		return scratch
	}
	if !v.Null {
		scratch = valueBytes(c, v, scratch[:0])
		z.nonNull++
	}
	switch {
	case m == RLE:
		if z.runLen == 0 || z.runNull != v.Null || !v.Null && !bytes.Equal(z.run, scratch) {
			z.runLen, z.runNull = 0, v.Null
			z.run = append(z.run[:0], scratch...) // unread while the run is NULL
		}
		if z.runLen%rleMaxRun == 0 { // a fresh run, or one outgrowing its header
			z.bytes += 2
			if !v.Null {
				z.bytes += lenPrefixLen(len(scratch)) + len(scratch)
			}
		}
		z.runLen++
	case v.Null:
		// Every other section records a NULL in its bitmap alone.
	case m == Page:
		z.page.add(scratch)
	case m == GlobalDict && !st.plain:
		if code := st.register(c.Kind, scratch); code > z.maxCode {
			z.maxCode = code
		}
	default: // ROW, and GDICT columns the pre-pass left plain
		z.bytes += lenPrefixLen(len(scratch)) + len(scratch)
	}
	return scratch
}

// size is the section's encoded length were the page to hold the k rows
// added so far.
func (z *colSizer) size(m Method, st *gdictState, k int) int {
	bitmap := (k + 7) / 8
	switch m {
	case RLE:
		return z.bytes
	case Page:
		return 2*bitmap + z.page.size()
	case GlobalDict:
		if st.plain {
			return 1 + bitmap + z.bytes
		}
		return 2 + bitmap + z.nonNull*gdictCodeWidth(z.maxCode)
	}
	return bitmap + z.bytes
}

// pageColSizer tracks a PAGE section: every distinct value is stored exactly
// once past the common prefix (as a dictionary entry when it repeats, as a
// literal otherwise), and every repeat costs one code. With model set it
// charges the size model's descriptors instead of the format's.
type pageColSizer struct {
	model       bool
	index       map[string]int32 // encoded value -> slot in count
	count       []int32
	prefix      []byte
	stored      int // Σ over distinct values of their length-prefixed suffix
	dictEntries int // distinct values occurring at least twice
	codedRows   int // rows stored as a dictionary code
}

func (z *pageColSizer) reset() {
	clear(z.index)
	z.count, z.prefix = z.count[:0], z.prefix[:0]
	z.stored, z.dictEntries, z.codedRows = 0, 0, 0
}

func (z *pageColSizer) suffixCost(valueLen int) int {
	n := valueLen - len(z.prefix)
	if z.model {
		return lenPrefixSize(n) + n
	}
	return lenPrefixLen(n) + n
}

func (z *pageColSizer) add(v []byte) {
	if len(z.count) == 0 {
		z.prefix = append(z.prefix, v...)
	} else if n := commonPrefixLen(z.prefix, v); n < len(z.prefix) {
		z.prefix = z.prefix[:n]
		z.stored = 0
		for val := range z.index {
			z.stored += z.suffixCost(len(val))
		}
	}
	id, ok := z.index[string(v)]
	if !ok {
		if z.index == nil {
			z.index = make(map[string]int32)
		}
		id = int32(len(z.count))
		z.index[string(v)] = id
		z.count = append(z.count, 0)
		z.stored += z.suffixCost(len(v))
	}
	z.count[id]++
	switch z.count[id] {
	case 1:
	case 2:
		z.dictEntries++
		z.codedRows += 2
	default:
		z.codedRows++
	}
}

// size is the section length without its two row bitmaps.
func (z *pageColSizer) size() int {
	codeSize := 1
	if z.dictEntries > 255 {
		codeSize = 2
	}
	body := len(z.prefix) + z.stored + z.codedRows*codeSize
	if z.model {
		return 1 + body
	}
	return lenPrefixLen(len(z.prefix)) + 2 + body // the format adds a u16 dictionary count
}

// lenPrefixLen is the byte length appendLenPrefix writes for n.
func lenPrefixLen(n int) int {
	switch {
	case n < 0x80:
		return 1
	case n < 0x7F00:
		return 2
	}
	return 5
}

// gdictCodeWidth is the bytes per code on a page whose largest code is maxCode.
func gdictCodeWidth(maxCode int) int {
	width := 1
	for maxCode >= 1<<(8*width) {
		width++
	}
	return width
}
