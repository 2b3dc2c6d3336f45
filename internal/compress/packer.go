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
// pass plus one real encode. Each value is encoded once: the sizing pass
// appends its minimal bytes to the column's page arena and the section
// writers read them back from there. Each PAGE value is hashed once per page:
// the sizer interns it and the writer codes the page by the sizer's ids.
// GDICT columns carry the codes the segment pre-pass assigned, and the packer
// holds no dictionary to look a value up in again.

// pageLayout is what the packer needs to know about a design's pages.
type pageLayout struct {
	methods []Method // per-column section method, schema order
	// codes[ci][i] is GDICT column ci's code for segment row i, -1 for NULL;
	// nil for other columns and for GDICT columns the pre-pass left plain.
	codes   [][]int32
	slotted bool // the page pays the per-row slot array
}

// maxPageRows is the most rows one page holds: the row count is a u16.
const maxPageRows = 0xFFFF

// packer packs one row stream into pages. Sizers, value arenas, section
// buffers and dictionary scratch are reused from page to page.
type packer struct {
	s      *storage.Schema
	lay    pageLayout
	rows   []storage.Row
	sizers []colSizer
	vals   []pageValues // per column: the minimal encodings fill produced
	passes int          // row-set walks so far, sizing and encoding alike (test budget)

	body []byte
	page pageColScratch
}

func newPacker(s *storage.Schema, lay pageLayout, rows []storage.Row) *packer {
	n := len(s.Columns)
	return &packer{s: s, lay: lay, rows: rows, sizers: make([]colSizer, n), vals: make([]pageValues, n)}
}

// pageValues is one column's minimal value encodings for the rows fill added
// to the page, back to back: row j's bytes end at end[j] (a NULL is empty).
type pageValues struct {
	buf     []byte
	end     []int32
	encodes int // values encoded into the arena so far, every page (test budget)
}

func (pv *pageValues) reset() { pv.buf, pv.end = pv.buf[:0], pv.end[:0] }

// add appends the next page row's value: its minimal encoding, or nothing for
// a NULL.
func (pv *pageValues) add(c storage.Column, v storage.Value) {
	if !v.Null {
		pv.buf = valueBytes(c, v, pv.buf)
		pv.encodes++
	}
	pv.end = append(pv.end, int32(len(pv.buf)))
}

// at returns page row j's encoding.
func (pv *pageValues) at(j int) []byte {
	at := int32(0)
	if j > 0 {
		at = pv.end[j-1]
	}
	return pv.buf[at:pv.end[j]]
}

func (p *packer) slotBytes(k int) int {
	if p.lay.slotted {
		return k * storage.SlotSize
	}
	return 0 // pure-RLE segments store runs, not slotted rows
}

// pack encodes the rows into pages, each holding the maximal fitting prefix
// of what remains (a single oversized row becomes an overflow run).
func (p *packer) pack() ([]storage.EncodedPage, error) {
	var out []storage.EncodedPage
	for start := 0; start < len(p.rows); {
		k, size := p.fill(start)
		payload, err := p.encodeGroup(start, k, size)
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

// fill sizes the page starting at row start: it returns the largest row count
// (at least 1, at most maxPageRows) whose encoding fits a page, and that
// encoding's size. The value arenas then hold the encodings of those rows
// (and of the first row that did not fit, which the next page encodes again).
func (p *packer) fill(start int) (int, int) {
	p.passes++
	for ci := range p.sizers {
		p.sizers[ci].reset()
		p.vals[ci].reset()
	}
	rows := p.rows[start:]
	k, size := 0, 0
	for k < len(rows) && k < maxPageRows {
		next := 2 // u16 row count
		for ci, c := range p.s.Columns {
			m, codes, z, v := p.lay.methods[ci], p.lay.codes[ci], &p.sizers[ci], rows[k][ci]
			switch {
			case m == None:
				z.bytes += storage.EncodedValueSize(c, v)
			case codes != nil:
				z.addCode(codes[start+k])
			default:
				pv := &p.vals[ci]
				pv.add(c, v)
				z.add(m, v.Null, pv.at(k))
			}
			sec := z.size(m, codes != nil, k+1)
			next += lenPrefixLen(sec) + sec
		}
		if k > 0 && next+p.slotBytes(k+1) > storage.UsablePageBytes {
			break
		}
		k, size = k+1, next
	}
	return k, size
}

// encodeGroup encodes the page fill sized, rows [start, start+n): the row
// count, then each column's length-framed section. sizeHint presizes the
// payload.
func (p *packer) encodeGroup(start, n, sizeHint int) ([]byte, error) {
	p.passes++
	if n > maxPageRows {
		return nil, fmt.Errorf("compress: page group of %d rows", n)
	}
	rows := p.rows[start : start+n]
	payload := make([]byte, 2, max(sizeHint, 2))
	binary.BigEndian.PutUint16(payload, uint16(n))
	for ci, c := range p.s.Columns {
		dst, pv := p.body[:0], &p.vals[ci]
		var err error
		switch m := p.lay.methods[ci]; m {
		case None:
			dst = appendNoneSection(dst, c, rows, ci)
		case Row:
			dst = appendRowSection(dst, rows, ci, pv)
		case Page:
			dst, err = p.page.appendColumn(dst, rows, ci, pv, &p.sizers[ci].page)
		case GlobalDict:
			if codes := p.lay.codes[ci]; codes != nil {
				dst = appendGDictSection(dst, codes[start:start+n])
			} else {
				dst = appendRowSection(append(dst, gdictPlain), rows, ci, pv)
			}
		case RLE:
			dst = appendRLESection(dst, rows, ci, pv)
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

	maxCode int32 // GDICT: largest code seen

	run     []byte // RLE: the open run's value (a view into the page arena)
	runLen  int
	runNull bool

	page pageColSizer
}

func (z *colSizer) reset() {
	z.bytes, z.nonNull, z.maxCode, z.runLen = 0, 0, 0, 0
	z.page.reset()
}

// addCode accounts one more row of a dictionary-coded GDICT column.
func (z *colSizer) addCode(code int32) {
	if code >= 0 {
		z.nonNull++
		z.maxCode = max(z.maxCode, code)
	}
}

// add accounts one more row's value, given as its minimal encoding, under a
// method that stores those bytes (ROW, PAGE, RLE, plain GDICT).
func (z *colSizer) add(m Method, null bool, v []byte) {
	if !null {
		z.nonNull++
	}
	switch {
	case m == RLE:
		if z.runLen == 0 || z.runNull != null || !null && !bytes.Equal(z.run, v) {
			z.runLen, z.runNull, z.run = 0, null, v // a view: the arena only grows within a page
		}
		if z.runLen%rleMaxRun == 0 { // a fresh run, or one outgrowing its header
			z.bytes += 2
			if !null {
				z.bytes += lenPrefixLen(len(v)) + len(v)
			}
		}
		z.runLen++
	case null:
		// Every other section records a NULL in its bitmap alone.
	case m == Page:
		z.page.add(v)
	default: // ROW, and GDICT columns the pre-pass left plain
		z.bytes += lenPrefixLen(len(v)) + len(v)
	}
}

// size is the section's encoded length were the page to hold the k rows
// added so far. coded marks a GDICT column stored as dictionary codes.
func (z *colSizer) size(m Method, coded bool, k int) int {
	bitmap := (k + 7) / 8
	switch m {
	case RLE:
		return z.bytes
	case Page:
		return 2*bitmap + z.page.size()
	case GlobalDict:
		if !coded {
			return 1 + bitmap + z.bytes
		}
		return 2 + bitmap + z.nonNull*gdictCodeWidth(int(z.maxCode))
	}
	return bitmap + z.bytes
}

// pageColSizer tracks a PAGE section: every distinct value is stored exactly
// once past the common prefix (as a dictionary entry when it repeats, as a
// literal otherwise), and every repeat costs one code. It numbers the page's
// distinct values in first-occurrence order and records each added value's
// id, so the writer codes the page by those ids and hashes nothing: every
// value on a page shares the page's prefix, so equal values have equal
// suffixes. With model set it charges the size model's descriptors instead of
// the format's.
type pageColSizer struct {
	model       bool
	values      internTable // the distinct values added since reset
	ids         []int32     // each added value's id, in order
	count       []int32     // id -> occurrences
	prefix      []byte
	stored      int // Σ over distinct values of their length-prefixed suffix
	dictEntries int // distinct values occurring at least twice
	codedRows   int // rows stored as a dictionary code
}

func (z *pageColSizer) reset() {
	z.values.reset()
	z.ids, z.count, z.prefix = z.ids[:0], z.count[:0], z.prefix[:0]
	z.stored, z.dictEntries, z.codedRows = 0, 0, 0
}

func (z *pageColSizer) suffixCost(valueLen int) int {
	n := valueLen - len(z.prefix)
	return lenPrefixLen(n) + n
}

func (z *pageColSizer) add(v []byte) {
	if len(z.ids) == 0 {
		z.prefix = append(z.prefix, v...)
	} else if n := commonPrefixLen(z.prefix, v); n < len(z.prefix) {
		z.prefix = z.prefix[:n]
		z.stored = 0
		for id := range z.count {
			z.stored += z.suffixCost(len(z.values.key(int32(id))))
		}
	}
	id, fresh := z.values.intern(v)
	if fresh {
		z.count = append(z.count, 0)
		z.stored += z.suffixCost(len(v))
	}
	z.ids = append(z.ids, id)
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

// gdictCodeWidth is the bytes per code on a page whose largest code is maxCode.
func gdictCodeWidth(maxCode int) int {
	width := 1
	for maxCode >= 1<<(8*width) {
		width++
	}
	return width
}
