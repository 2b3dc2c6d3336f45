package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"cadb/internal/storage"
)

// This file is the read half of the design codec. A cursor compiles one
// pageDecoder from its (schema, spec) and runs every page through it:
// predicates are grouped by column, output positions fixed and each column's
// kernel picked once, and the selection vector, section table, output rows
// and their value slab are reused from page to page.
//
// A kernel decodes the sections of one method for the kinds it serves. It
// runs one bounds-checked loop per section, decoding inline: the filter pass
// tests a stack Value with matchesAll and drops failing rows from the
// selection; the materialize pass writes each survivor's storage.Value
// straight into the output slab. No value goes through a per-value method or
// kind call; the kernels that serve several kinds switch on the column's
// kind inside the loop, a branch that never changes within a section:
//
//	        INT   DATE   FLOAT      CHAR(n)    VARCHAR
//	NONE    noneNumber (8/4 bytes)  noneChar   noneVarchar  fixed widths addressed by row
//	ROW     rowMinimal (every kind)                         length-prefixed minimal bytes
//	GDICT   gdict: copies the dictionary's pre-decoded value per code; a
//	        plain-elected section runs rowMinimal
//	PAGE    page (decode_columns.go): the values region is walked once per page
//	RLE     rle: one value per run
//
// PAGE and RLE decode a value once per local-dictionary entry, literal or
// run, through the column's valueDecoder (intValue, floatValue or
// stringValue); the segment build decodes a coded GDICT dictionary once
// through the same decoder (decodeDict, gdictState.values).
//
// Hostile bytes: a kernel bounds-checks every byte it reads and returns an
// error, never panics or writes past the slab. The section framing, a
// fixed-width NONE section's length and a PAGE section are validated whole.
// The NONE VARCHAR, ROW, GDICT and RLE kernels read a section only up to the
// last selected row, so a section malformed only after it decodes without
// error, and the same page may fail under one selection and decode under a
// narrower one.
//
// Allocation: once warm, a decode whose needed and predicated columns are
// numeric allocates nothing. A string column allocates one string per
// returned non-NULL value under NONE and ROW, per returned local entry,
// literal or run under PAGE and RLE, and none under GDICT, whose values share
// the dictionary's bytes. Filters test strings as views of the page bytes
// and allocate nothing.

// pageDecoder implements storage.PageDecoder for the design codec.
type pageDecoder struct {
	name  string
	cols  []decodeCol // the columns the spec touches, ascending ordinal
	last  int         // highest touched ordinal, -1 when the spec names none
	width int         // values per output row (len(spec.Needed))
	err   error       // the spec names a column the schema lacks

	// Per-page working memory, reused.
	sections [][]byte
	sel      []bool // sel[j]: row j is still in the selection
	selCount int    // rows in the selection
	slab     []storage.Value
	out      storage.DecodedPage
	scratch  []byte
	residual []storage.ColPredicate // PAGE: predicates the prefix left open
	match    []uint8                // PAGE: verdict per entry (0 unknown, 1 pass, 2 fail)
	entVals  []storage.Value        // PAGE: decoded entries
	entDone  []bool
}

// decodeCol is one column a decoder touches.
type decodeCol struct {
	ci    int
	col   storage.Column
	preds []storage.ColPredicate
	out   int // position in the output row, -1 for a predicate-only column

	kern  kernel       // the method's kernel for the column's kind
	value valueDecoder // the kind's minimal-encoding decoder (PAGE, RLE)

	// GDICT: the segment's dictionary, and this decoder's verdict per code
	// under preds (0 unknown, 1 pass, 2 fail). The dictionary is segment-wide
	// and read-only, so a verdict holds for the decoder's life.
	dict    *gdictState
	verdict []uint8

	// Per page: the PAGE section parse (shared by the filter and materialize
	// passes) and whether the column has been charged to ColumnsDecoded.
	page    pageColumn
	parsed  bool
	counted bool
}

// A kernel runs one pass over one section of its column. With filter set it
// narrows d.sel by the column's predicates and reports whether any value
// bytes were decoded (a column decided from bitmaps or page metadata alone is
// free); otherwise it writes every survivor's value into the slab.
type kernel func(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (counted bool, err error)

// A valueDecoder rebuilds one value of a kind from its minimal encoding
// (valueBytes' inverse) stored as prefix + suffix: PAGE splits each value at
// its page's common prefix, RLE passes none. A string value has bytes of its
// own when keep is set; otherwise it is a view of the bytes (of d.scratch when
// there is a prefix), valid until the next call.
type valueDecoder func(d *pageDecoder, k storage.Kind, prefix, suffix []byte, keep bool) (storage.Value, error)

// kernelFor picks the kernel and value decoder of a column under a method.
func kernelFor(m Method, col storage.Column) (kern kernel, value valueDecoder, err error) {
	var none kernel
	switch {
	case col.Kind == storage.KindInt, col.Kind == storage.KindDate:
		none, value = noneNumber, intValue
	case col.Kind == storage.KindFloat:
		none, value = noneNumber, floatValue
	case col.Kind == storage.KindString && col.FixedWidth > 0:
		none, value = noneChar, stringValue
	case col.Kind == storage.KindString:
		none, value = noneVarchar, stringValue
	default:
		return nil, nil, fmt.Errorf("compress: column %s has unknown kind %v", col.Name, col.Kind)
	}
	switch m {
	case None:
		return none, value, nil
	case Row:
		return rowMinimal, value, nil
	case GlobalDict:
		return gdict, value, nil
	case Page:
		return page, value, nil
	case RLE:
		return rle, value, nil
	}
	return nil, nil, fmt.Errorf("compress: bad column method %d", m)
}

// NewDecoder compiles the spec against the schema.
func (cc *columnCodec) NewDecoder(s *storage.Schema, spec *storage.DecodeSpec) storage.PageDecoder {
	cc.resolve(s)
	d := &pageDecoder{name: cc.Name(), last: -1, width: len(spec.Needed)}
	outPos := make([]int, len(s.Columns))
	for ci := range outPos {
		outPos[ci] = -1
	}
	preds := make([][]storage.ColPredicate, len(s.Columns))
	for k, ci := range spec.Needed {
		if ci < 0 || ci >= len(s.Columns) {
			d.err = fmt.Errorf("compress: column %d out of range", ci)
			return d
		}
		outPos[ci] = k
	}
	for _, p := range spec.Preds {
		if p.Col < 0 || p.Col >= len(s.Columns) {
			d.err = fmt.Errorf("compress: column %d out of range", p.Col)
			return d
		}
		preds[p.Col] = append(preds[p.Col], p)
	}
	for ci, c := range s.Columns {
		if outPos[ci] < 0 && len(preds[ci]) == 0 {
			continue
		}
		kern, value, err := kernelFor(cc.resolved[ci], c)
		if err != nil {
			d.err = err
			return d
		}
		d.cols = append(d.cols, decodeCol{ci: ci, col: c, preds: preds[ci], out: outPos[ci], kern: kern, value: value, dict: cc.dicts[ci]})
		d.last = ci
	}
	return d
}

// Decode reconstructs the needed columns of the rows of one page that pass
// the predicates (and sit on one of slots, when non-nil). The result and its
// rows are overwritten by the next Decode.
func (d *pageDecoder) Decode(payload []byte, nrows int, slots []int) (*storage.DecodedPage, error) {
	if d.err != nil {
		return nil, d.err
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("compress: short %s page", d.name)
	}
	n := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	if n != nrows {
		return nil, fmt.Errorf("compress: %s header says %d rows, directory says %d", d.name, n, nrows)
	}

	sel := slices.Grow(d.sel[:0], n)[:n]
	d.sel = sel
	d.selCount = n
	if slots == nil {
		for j := range sel {
			sel[j] = true
		}
	} else {
		clear(sel)
		d.selCount = 0
		for _, sl := range slots {
			if sl >= 0 && sl < n && !sel[sl] {
				sel[sl] = true
				d.selCount++
			}
		}
	}
	out := &d.out
	*out = storage.DecodedPage{Rows: out.Rows[:0], Slots: out.Slots[:0]}
	if err := d.parseSections(payload); err != nil {
		return nil, err
	}

	// Pass 1: evaluate pushed predicates column by column, narrowing the
	// selection. Each method exploits its own layout: GDICT evaluates once
	// per dictionary code, RLE once per run, PAGE once per local-dictionary
	// entry; NONE/ROW decode only selected rows.
	for i := range d.cols {
		c := &d.cols[i]
		c.parsed, c.counted = false, false
		if len(c.preds) == 0 || d.selCount == 0 {
			continue
		}
		var err error
		if c.counted, err = c.kern(d, c, d.sections[c.ci], n, true); err != nil {
			return nil, err
		}
		if c.counted {
			out.ColumnsDecoded++
		}
	}
	selCount := d.selCount
	out.TuplesDecoded = int64(selCount)
	if selCount == 0 {
		return out, nil
	}

	// Pass 2: materialize the needed columns of the survivors. One slab backs
	// every output row; the full slice expression keeps an append to one row
	// from running into the next. Survivor i's value of a column is slab cell
	// i*width + its output position.
	for j, ok := range sel {
		if ok {
			out.Slots = append(out.Slots, j)
		}
	}
	w := d.width
	d.slab = slices.Grow(d.slab[:0], selCount*w)[:selCount*w]
	for i := 0; i < selCount; i++ {
		out.Rows = append(out.Rows, d.slab[i*w:(i+1)*w:(i+1)*w])
	}
	for i := range d.cols {
		c := &d.cols[i]
		if c.out < 0 {
			continue
		}
		if !c.counted {
			out.ColumnsDecoded++
		}
		if _, err := c.kern(d, c, d.sections[c.ci], n, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseSections splits the page payload into per-column section bodies up to
// and including the last touched column.
func (d *pageDecoder) parseSections(payload []byte) error {
	d.sections = d.sections[:0]
	for ci := 0; ci <= d.last; ci++ {
		ln, adv, err := readLenPrefix(payload)
		if err != nil {
			return err
		}
		payload = payload[adv:]
		if len(payload) < ln {
			return fmt.Errorf("compress: short column section %d", ci)
		}
		d.sections = append(d.sections, payload[:ln])
		payload = payload[ln:]
	}
	return nil
}

// outColumn is the slab from the column's first output cell on, and the
// stride between survivors' cells. A filter pass writes no cell.
func (d *pageDecoder) outColumn(c *decodeCol, filter bool) ([]storage.Value, int) {
	if filter {
		return nil, d.width
	}
	return d.slab[c.out:], d.width
}

// test drops row j from the selection unless v satisfies every predicate of
// the column.
func (d *pageDecoder) test(c *decodeCol, j int, v storage.Value) {
	if !matchesAll(c.preds, v) {
		d.sel[j] = false
		d.selCount--
	}
}

// dropNulls removes the NULL rows from the selection: a predicated column
// fails every NULL (three-valued logic), decided from the bitmap alone.
func (d *pageDecoder) dropNulls(nulls []byte) {
	sel := d.sel
	for j := range sel {
		if sel[j] && isSet(nulls, j) {
			sel[j] = false
			d.selCount--
		}
	}
}

func isSet(bitmap []byte, j int) bool { return bitmap[j>>3]&(1<<(uint(j)&7)) != 0 }

// view is b as a string without a copy, for a value tested and dropped while
// the page bytes stand still. A value that is kept is copied.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// bytesOf is s's bytes without a copy, for a value decoder reading a GDICT
// entry whose string value then shares them. The bytes must not be written.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// foldBE appends b to u as big-endian bytes.
func foldBE[B []byte | string](u uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		u = u<<8 | uint64(b[i])
	}
	return u
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// lenValue bounds the length-prefixed value at body[at:], returning where its
// bytes start and end. It reads readLenPrefix's one-byte form and is small
// enough to inline; ok is false for a longer form or a value past the
// section, which lenValueSlow then reads or rejects.
func lenValue(body []byte, at int) (start, end int, ok bool) {
	if at < len(body) && body[at] < 0x80 {
		start, end = at+1, at+1+int(body[at])
		return start, end, end <= len(body)
	}
	return 0, 0, false
}

func lenValueSlow(body []byte, at int) (int, int, error) {
	ln, adv, err := readLenPrefix(body[at:])
	if err != nil {
		return 0, 0, err
	}
	start := at + adv
	if len(body)-start < ln {
		return 0, 0, fmt.Errorf("compress: %d-byte value runs past its section", ln)
	}
	return start, start + ln, nil
}

func errWideNumber(k storage.Kind, n int) error {
	return fmt.Errorf("compress: %d-byte %v value", n, k)
}

// ---------------------------------------------------------------------------
// Minimal-encoding value decoders (PAGE entries and literals, RLE runs)

func intValue(_ *pageDecoder, k storage.Kind, prefix, suffix []byte, _ bool) (storage.Value, error) {
	if n := len(prefix) + len(suffix); n > 8 {
		return storage.Value{}, errWideNumber(k, n)
	}
	return storage.Value{Kind: k, Int: unzigzag(foldBE(foldBE(0, prefix), suffix))}, nil
}

// floatValue restores the trailing zero bytes the encoding drops.
func floatValue(_ *pageDecoder, k storage.Kind, prefix, suffix []byte, _ bool) (storage.Value, error) {
	n := len(prefix) + len(suffix)
	if n > 8 {
		return storage.Value{}, errWideNumber(k, n)
	}
	return storage.FloatVal(math.Float64frombits(foldBE(foldBE(0, prefix), suffix) << (64 - 8*n))), nil
}

func stringValue(d *pageDecoder, _ storage.Kind, prefix, suffix []byte, keep bool) (storage.Value, error) {
	b := suffix
	if len(prefix) > 0 {
		d.scratch = append(append(d.scratch[:0], prefix...), suffix...)
		b = d.scratch
	}
	if keep {
		return storage.StringVal(string(b)), nil
	}
	return storage.StringVal(view(b)), nil
}

// ---------------------------------------------------------------------------
// NONE and ROW sections: [null bitmap][values]

// plainSection splits a NONE or ROW section into its null bitmap and values.
// A filter first drops the NULL rows from the selection; run is false when
// no selected row is left to decode.
func (d *pageDecoder) plainSection(m Method, body []byte, n int, filter bool) (nulls, vals []byte, run bool, err error) {
	bitmapLen := (n + 7) / 8
	if len(body) < bitmapLen {
		return nil, nil, false, fmt.Errorf("compress: short %s section", m)
	}
	nulls = body[:bitmapLen]
	if filter {
		if d.dropNulls(nulls); d.selCount == 0 {
			return nil, nil, false, nil
		}
	}
	return nulls, body[bitmapLen:], true, nil
}

// noneFixed is plainSection for a fixed-width NONE column, whose n values
// (a NULL zero-filled) must all be present.
func (d *pageDecoder) noneFixed(body []byte, n, width int, filter bool) (nulls, vals []byte, run bool, err error) {
	nulls, vals, run, err = d.plainSection(None, body, n, filter)
	if run && len(vals) < n*width {
		return nil, nil, true, fmt.Errorf("compress: short NONE section: %d bytes for %d %d-byte values", len(vals), n, width)
	}
	return nulls, vals, run, err
}

// noneNumber decodes the fixed-width numeric columns: 8-byte INT and FLOAT,
// 4-byte DATE. The kind switch is loop-invariant.
func noneNumber(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	k := c.col.Kind
	width := 8
	if k == storage.KindDate {
		width = 4
	}
	nulls, vals, run, err := d.noneFixed(body, n, width, filter)
	if !run || err != nil {
		return run, err
	}
	out, w := d.outColumn(c, filter)
	for i, j := 0, 0; j < n; j++ {
		if !d.sel[j] {
			continue
		}
		v := storage.NullValue(k)
		if !isSet(nulls, j) {
			switch k {
			case storage.KindInt:
				v = storage.IntVal(int64(binary.BigEndian.Uint64(vals[8*j:])))
			case storage.KindFloat:
				v = storage.FloatVal(math.Float64frombits(binary.BigEndian.Uint64(vals[8*j:])))
			default:
				v = storage.DateVal(int64(int32(binary.BigEndian.Uint32(vals[4*j:]))))
			}
		}
		if filter {
			d.test(c, j, v)
		} else {
			out[i*w] = v
			i++
		}
	}
	return true, nil
}

// noneChar strips CHAR(n)'s blank padding.
func noneChar(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	width := c.col.FixedWidth
	nulls, vals, run, err := d.noneFixed(body, n, width, filter)
	if !run || err != nil {
		return run, err
	}
	out, w := d.outColumn(c, filter)
	for i, j := 0, 0; j < n; j++ {
		if !d.sel[j] {
			continue
		}
		if isSet(nulls, j) {
			out[i*w] = storage.NullValue(storage.KindString) // a filter dropped the NULLs
			i++
			continue
		}
		b := vals[width*j : width*(j+1)]
		for len(b) > 0 && b[len(b)-1] == ' ' {
			b = b[:len(b)-1]
		}
		if filter {
			d.test(c, j, storage.StringVal(view(b)))
		} else {
			out[i*w] = storage.StringVal(string(b))
			i++
		}
	}
	return true, nil
}

// noneVarchar walks u16-length values, a NULL's included, up to the last
// selected row.
func noneVarchar(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	nulls, vals, run, err := d.plainSection(None, body, n, filter)
	if !run || err != nil {
		return run, err
	}
	out, w := d.outColumn(c, filter)
	at := 0
	for i, j, left := 0, 0, d.selCount; left > 0; j++ {
		if len(vals)-at < 2 {
			return true, fmt.Errorf("compress: short NONE section")
		}
		start := at + 2
		at = start + int(binary.BigEndian.Uint16(vals[at:]))
		if at > len(vals) {
			return true, fmt.Errorf("compress: short NONE section")
		}
		if !d.sel[j] {
			continue
		}
		left--
		switch {
		case isSet(nulls, j): // a filter dropped the NULLs
			out[i*w] = storage.NullValue(storage.KindString)
			i++
		case filter:
			d.test(c, j, storage.StringVal(view(vals[start:at])))
		default:
			out[i*w] = storage.StringVal(string(vals[start:at]))
			i++
		}
	}
	return true, nil
}

// rowMinimal decodes length-prefixed minimal bytes: zigzag for INT and
// DATE, trailing-trimmed for FLOAT (the dropped zero bytes are restored), raw
// for strings (CHAR(n) is stored stripped). ROW stores nothing for a NULL.
// The kind switch is loop-invariant.
func rowMinimal(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	nulls, vals, run, err := d.plainSection(Row, body, n, filter)
	if !run || err != nil {
		return run, err
	}
	out, w := d.outColumn(c, filter)
	k := c.col.Kind
	at := 0
	for i, j, left := 0, 0, d.selCount; left > 0; j++ {
		if isSet(nulls, j) {
			if d.sel[j] { // a filter dropped the NULLs
				out[i*w] = storage.NullValue(k)
				i++
				left--
			}
			continue
		}
		start, end, ok := lenValue(vals, at)
		if !ok {
			if start, end, err = lenValueSlow(vals, at); err != nil {
				return true, err
			}
		}
		at = end
		if !d.sel[j] {
			continue
		}
		left--
		b := vals[start:end]
		var v storage.Value
		switch {
		case k == storage.KindString && !filter:
			out[i*w] = storage.StringVal(string(b))
			i++
			continue
		case k == storage.KindString:
			v = storage.StringVal(view(b))
		case len(b) > 8:
			return true, errWideNumber(k, len(b))
		case k == storage.KindFloat:
			v = storage.FloatVal(math.Float64frombits(foldBE(0, b) << (64 - 8*len(b))))
		default:
			v = storage.Value{Kind: k, Int: unzigzag(foldBE(0, b))}
		}
		if filter {
			d.test(c, j, v)
		} else {
			out[i*w] = v
			i++
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// GDICT sections: [mode u8] then [codeWidth u8][null bitmap][fixed-width
// codes per non-null row] against the segment-global dictionary, or a
// ROW-style plain body

// gdict copies each selected row's value from the dictionary, which the
// segment build decoded once, and filters once per code for the decoder's
// life.
func gdict(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	if len(body) < 1 {
		return false, fmt.Errorf("compress: short GDICT section")
	}
	if body[0] == gdictPlain {
		return rowMinimal(d, c, body[1:], n, filter)
	}
	body = body[1:]
	bitmapLen := (n + 7) / 8
	if len(body) < 1+bitmapLen {
		return false, fmt.Errorf("compress: short GDICT section")
	}
	width := int(body[0])
	if width < 1 || width > 4 {
		return false, fmt.Errorf("compress: GDICT code width %d", width)
	}
	nulls, codes := body[1:1+bitmapLen], body[1+bitmapLen:]
	vals := c.dict.values
	if filter && len(c.verdict) < len(vals) {
		c.verdict = make([]uint8, len(vals))
	}
	out, w := d.outColumn(c, filter)
	at := 0
	for i, j, left := 0, 0, d.selCount; left > 0; j++ {
		if isSet(nulls, j) {
			if d.sel[j] {
				left--
				if filter {
					d.sel[j] = false
					d.selCount--
				} else {
					out[i*w] = storage.NullValue(c.col.Kind)
					i++
				}
			}
			continue
		}
		if len(codes)-at < width {
			return true, fmt.Errorf("compress: short GDICT codes")
		}
		code := int(foldBE(0, codes[at:at+width]))
		at += width
		if code >= len(vals) {
			return true, fmt.Errorf("compress: GDICT code %d of a %d-entry dictionary", code, len(vals))
		}
		if !d.sel[j] {
			continue
		}
		left--
		if !filter {
			out[i*w] = vals[code]
			i++
			continue
		}
		if c.verdict[code] == 0 {
			c.verdict[code] = 2
			if matchesAll(c.preds, vals[code]) {
				c.verdict[code] = 1
			}
		}
		if c.verdict[code] == 2 {
			d.sel[j] = false
			d.selCount--
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// RLE sections: runs of [u16 header: bit 15 = NULL run, bits 0-14 = run
// length] followed, for value runs, by lenPrefix + minimal value bytes

// rleRun reads the run starting at row of an n-row page: its length, its
// value's bytes (NULL runs store none) and the section after it.
func rleRun(body []byte, row, n int) (runLen int, null bool, val, rest []byte, err error) {
	if len(body) < 2 {
		return 0, false, nil, nil, fmt.Errorf("compress: short RLE run header")
	}
	hdr := binary.BigEndian.Uint16(body)
	body = body[2:]
	runLen = int(hdr & rleMaxRun)
	if runLen == 0 || row+runLen > n {
		return 0, false, nil, nil, fmt.Errorf("compress: RLE run of %d rows at row %d of %d", runLen, row, n)
	}
	if hdr&0x8000 != 0 {
		return runLen, true, nil, body, nil
	}
	start, end, ok := lenValue(body, 0)
	if !ok {
		if start, end, err = lenValueSlow(body, 0); err != nil {
			return 0, false, nil, nil, err
		}
	}
	return runLen, false, body[start:end], body[end:], nil
}

// rle decodes a run's value once, and only when the run holds a selected
// row, up to the last selected row.
func rle(d *pageDecoder, c *decodeCol, body []byte, n int, filter bool) (bool, error) {
	out, w := d.outColumn(c, filter)
	k := c.col.Kind
	for i, row, left := 0, 0, d.selCount; left > 0; {
		runLen, null, val, rest, err := rleRun(body, row, n)
		if err != nil {
			return true, err
		}
		body = rest
		run := d.sel[row : row+runLen]
		row += runLen
		hits := 0
		for _, ok := range run {
			if ok {
				hits++
			}
		}
		if hits == 0 {
			continue
		}
		left -= hits
		v := storage.NullValue(k)
		if !null {
			if v, err = c.value(d, k, nil, val, !filter); err != nil {
				return true, err
			}
		}
		if filter {
			if !matchesAll(c.preds, v) { // a NULL run never does
				clear(run)
				d.selCount -= hits
			}
			continue
		}
		for ; hits > 0; hits-- {
			out[i*w] = v
			i++
		}
	}
	return true, nil
}
