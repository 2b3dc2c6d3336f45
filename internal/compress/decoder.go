package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cadb/internal/storage"
)

// This file is the read half of the design codec. A cursor compiles one
// pageDecoder from its (schema, spec) and runs every page through it:
// predicates are grouped by column and output positions fixed once, and the
// selection vector, section table, output rows and their value slab are
// reused from page to page — a decode allocates only the strings it returns.

// pageDecoder implements storage.PageDecoder for the design codec.
type pageDecoder struct {
	name  string
	cols  []decodeCol // the columns the spec touches, ascending ordinal
	last  int         // highest touched ordinal, -1 when the spec names none
	width int         // values per output row (len(spec.Needed))
	err   error       // the spec names a column the schema lacks

	// Per-page working memory, reused.
	sections [][]byte
	sel      []bool  // sel[j]: row j is still in the selection
	outIdx   []int32 // row j's position among the survivors, -1 when dropped
	slab     []storage.Value
	out      storage.DecodedPage
	scratch  []byte
	residual []storage.ColPredicate // PAGE: predicates the prefix left open
	match    []bool                 // PAGE: verdict per local-dictionary entry
	dictVals []storage.Value        // PAGE: decoded local-dictionary entries
	dictDone []bool
}

// decodeCol is one column a decoder touches.
type decodeCol struct {
	ci     int
	col    storage.Column
	method Method
	preds  []storage.ColPredicate
	out    int // position in the output row, -1 for a predicate-only column

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
		d.cols = append(d.cols, decodeCol{
			ci: ci, col: c, method: cc.resolved[ci], preds: preds[ci], out: outPos[ci], dict: cc.dicts[ci],
		})
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
	selCount := n
	if slots == nil {
		for j := range sel {
			sel[j] = true
		}
	} else {
		clear(sel)
		selCount = 0
		for _, sl := range slots {
			if sl >= 0 && sl < n && !sel[sl] {
				sel[sl] = true
				selCount++
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
	// entry; NONE/ROW walk the section but decode only selected rows.
	for i := range d.cols {
		c := &d.cols[i]
		c.parsed, c.counted = false, false
		if len(c.preds) == 0 || selCount == 0 {
			continue
		}
		var err error
		selCount, c.counted, err = d.filter(c, d.sections[c.ci], n, sel, selCount)
		if err != nil {
			return nil, err
		}
		if c.counted {
			out.ColumnsDecoded++
		}
	}
	out.TuplesDecoded = int64(selCount)
	if selCount == 0 {
		return out, nil
	}

	// Pass 2: materialize the needed columns of the survivors. One slab backs
	// every output row; the full slice expression keeps an append to one row
	// from running into the next.
	d.outIdx = slices.Grow(d.outIdx[:0], n)[:n]
	for j := 0; j < n; j++ {
		d.outIdx[j] = -1
		if sel[j] {
			d.outIdx[j] = int32(len(out.Slots))
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
		if err := d.materialize(c, d.sections[c.ci], n); err != nil {
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

// gdictBody strips the mode byte of a GDICT section, reporting whether the
// body is ROW-style plain storage (the segment pre-pass found the dictionary
// unprofitable) instead of dictionary codes.
func gdictBody(body []byte) (rest []byte, plain bool, err error) {
	if len(body) < 1 {
		return nil, false, fmt.Errorf("compress: short GDICT section")
	}
	return body[1:], body[0] == gdictPlain, nil
}

// filter narrows sel by evaluating the column's predicates against its
// section, returning the new selection count and whether any value bytes were
// decoded (columns decided from bitmaps alone are free).
func (d *pageDecoder) filter(c *decodeCol, body []byte, n int, sel []bool, selCount int) (int, bool, error) {
	m := c.method
	if m == GlobalDict {
		rest, plain, err := gdictBody(body)
		if err != nil {
			return 0, false, err
		}
		if !plain {
			return filterGDict(c, rest, n, sel, selCount)
		}
		m, body = Row, rest
	}
	switch m {
	case None, Row:
		return filterPlain(c, m, body, n, sel, selCount)
	case Page:
		if err := d.parsePage(c, body, n); err != nil {
			return 0, false, err
		}
		return d.filterPage(c, n, sel, selCount)
	case RLE:
		return filterRLE(c, body, n, sel, selCount)
	}
	return 0, false, fmt.Errorf("compress: bad column method %d", m)
}

// materialize writes the surviving rows' values of one column into the output
// slab, decoding dictionary entries and run values at most once each.
func (d *pageDecoder) materialize(c *decodeCol, body []byte, n int) error {
	m := c.method
	if m == GlobalDict {
		rest, plain, err := gdictBody(body)
		if err != nil {
			return err
		}
		if !plain {
			return d.materializeGDict(c, rest, n)
		}
		m, body = Row, rest
	}
	switch m {
	case None, Row:
		return d.materializePlain(c, m, body, n)
	case Page:
		if err := d.parsePage(c, body, n); err != nil {
			return err
		}
		return d.materializePage(c, n)
	case RLE:
		return d.materializeRLE(c, body, n)
	}
	return fmt.Errorf("compress: bad column method %d", m)
}

func (d *pageDecoder) parsePage(c *decodeCol, body []byte, n int) error {
	if c.parsed {
		return nil
	}
	c.parsed = true
	return c.page.parse(body, n)
}

// put stores row j's value of column c if the row survived.
func (d *pageDecoder) put(c *decodeCol, j int, v storage.Value) {
	if i := d.outIdx[j]; i >= 0 {
		d.slab[int(i)*d.width+c.out] = v
	}
}

// ---------------------------------------------------------------------------
// NONE and ROW sections

// plainWalk steps through the values of a NONE or ROW section in row order,
// bounds-checking every value without decoding any.
type plainWalk struct {
	col   storage.Column
	m     Method
	body  []byte
	nulls []byte
	at    int
}

func newPlainWalk(col storage.Column, m Method, body []byte, n int) (plainWalk, error) {
	bitmapLen := (n + 7) / 8
	if len(body) < bitmapLen {
		return plainWalk{}, fmt.Errorf("compress: short %s section", m)
	}
	return plainWalk{col: col, m: m, body: body, nulls: body[:bitmapLen], at: bitmapLen}, nil
}

func (w *plainWalk) isNull(j int) bool { return w.nulls[j/8]&(1<<(uint(j)%8)) != 0 }

// next returns the stored bytes of row j (nil for a NULL). ROW sections store
// nothing for a NULL; NONE sections store its zero-filled full width.
func (w *plainWalk) next(j int) ([]byte, error) {
	null := w.isNull(j)
	body, at := w.body, w.at
	if w.m == Row {
		if null {
			return nil, nil
		}
		ln, adv, err := readLenPrefix(body[at:])
		if err != nil {
			return nil, err
		}
		at += adv
		if len(body) < at+ln {
			return nil, fmt.Errorf("compress: short ROW section value")
		}
		w.at = at + ln
		return body[at:w.at], nil
	}
	ln := w.col.Width()
	if ln == 0 { // VARCHAR: u16 length + bytes
		if len(body) < at+2 {
			return nil, fmt.Errorf("compress: short NONE section")
		}
		ln = int(binary.BigEndian.Uint16(body[at:]))
		at += 2
	}
	if len(body) < at+ln {
		return nil, fmt.Errorf("compress: short NONE section")
	}
	w.at = at + ln
	if null {
		return nil, nil
	}
	return body[at:w.at], nil
}

// decode reconstructs a value from the bytes next returned.
func (w *plainWalk) decode(b []byte) (storage.Value, error) {
	if w.m == Row {
		return decodeValue(w.col, b)
	}
	switch w.col.Kind {
	case storage.KindInt:
		return storage.Value{Kind: storage.KindInt, Int: int64(binary.BigEndian.Uint64(b))}, nil
	case storage.KindFloat:
		return storage.Value{Kind: storage.KindFloat, Float: math.Float64frombits(binary.BigEndian.Uint64(b))}, nil
	case storage.KindDate:
		return storage.Value{Kind: storage.KindDate, Int: int64(int32(binary.BigEndian.Uint32(b)))}, nil
	}
	if w.col.FixedWidth > 0 { // CHAR(n): strip the blank padding
		end := len(b)
		for end > 0 && b[end-1] == ' ' {
			end--
		}
		b = b[:end]
	}
	return storage.Value{Kind: storage.KindString, Str: string(b)}, nil
}

func filterPlain(c *decodeCol, m Method, body []byte, n int, sel []bool, selCount int) (int, bool, error) {
	w, err := newPlainWalk(c.col, m, body, n)
	if err != nil {
		return 0, false, err
	}
	// A predicated column fails every NULL row; decided from the bitmap.
	for j := 0; j < n; j++ {
		if sel[j] && w.isNull(j) {
			sel[j] = false
			selCount--
		}
	}
	if selCount == 0 {
		return 0, false, nil
	}
	for j := 0; j < n; j++ {
		b, err := w.next(j)
		if err != nil {
			return 0, true, err
		}
		if !sel[j] {
			continue
		}
		v, err := w.decode(b)
		if err != nil {
			return 0, true, err
		}
		if !matchesAll(c.preds, v) {
			sel[j] = false
			selCount--
		}
	}
	return selCount, true, nil
}

func (d *pageDecoder) materializePlain(c *decodeCol, m Method, body []byte, n int) error {
	w, err := newPlainWalk(c.col, m, body, n)
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		b, err := w.next(j)
		if err != nil {
			return err
		}
		if d.outIdx[j] < 0 {
			continue
		}
		v := storage.NullValue(c.col.Kind)
		if !w.isNull(j) {
			if v, err = w.decode(b); err != nil {
				return err
			}
		}
		d.put(c, j, v)
	}
	return nil
}

// ---------------------------------------------------------------------------
// GDICT sections: fixed-width codes against the segment-global dictionary

// gdictWalk steps through the codes of a dictionary-coded GDICT section.
type gdictWalk struct {
	nulls []byte
	codes []byte
	width int
	vals  []string
}

func newGDictWalk(c *decodeCol, body []byte, n int) (gdictWalk, error) {
	bitmapLen := (n + 7) / 8
	if len(body) < 1+bitmapLen {
		return gdictWalk{}, fmt.Errorf("compress: short GDICT section")
	}
	width := int(body[0])
	if width < 1 || width > 4 {
		return gdictWalk{}, fmt.Errorf("compress: GDICT code width %d", width)
	}
	return gdictWalk{nulls: body[1 : 1+bitmapLen], codes: body[1+bitmapLen:], width: width, vals: c.dict.vals}, nil
}

func (w *gdictWalk) isNull(j int) bool { return w.nulls[j/8]&(1<<(uint(j)%8)) != 0 }

// next reads the next non-null row's code.
func (w *gdictWalk) next() (int, error) {
	if len(w.codes) < w.width {
		return 0, fmt.Errorf("compress: short GDICT codes")
	}
	code := 0
	for _, b := range w.codes[:w.width] {
		code = code<<8 | int(b)
	}
	w.codes = w.codes[w.width:]
	if code >= len(w.vals) {
		return 0, fmt.Errorf("compress: GDICT code %d out of range", code)
	}
	return code, nil
}

// filterGDict evaluates the predicates once per dictionary code, for the
// decoder's life.
func filterGDict(c *decodeCol, body []byte, n int, sel []bool, selCount int) (int, bool, error) {
	w, err := newGDictWalk(c, body, n)
	if err != nil {
		return 0, false, err
	}
	if len(c.verdict) < len(w.vals) {
		c.verdict = make([]uint8, len(w.vals))
	}
	for j := 0; j < n; j++ {
		if w.isNull(j) {
			if sel[j] {
				sel[j] = false
				selCount--
			}
			continue
		}
		code, err := w.next()
		if err != nil {
			return 0, false, err
		}
		if !sel[j] {
			continue
		}
		if c.verdict[code] == 0 {
			v, err := decodeValue(c.col, w.vals[code])
			if err != nil {
				return 0, false, err
			}
			c.verdict[code] = 2
			if matchesAll(c.preds, v) {
				c.verdict[code] = 1
			}
		}
		if c.verdict[code] == 2 {
			sel[j] = false
			selCount--
		}
	}
	return selCount, true, nil
}

// materializeGDict decodes straight from the dictionary: integers cost a few
// shifts, and a string value shares the dictionary entry's bytes.
func (d *pageDecoder) materializeGDict(c *decodeCol, body []byte, n int) error {
	w, err := newGDictWalk(c, body, n)
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		if w.isNull(j) {
			d.put(c, j, storage.NullValue(c.col.Kind))
			continue
		}
		code, err := w.next()
		if err != nil {
			return err
		}
		if d.outIdx[j] < 0 {
			continue
		}
		v, err := decodeValue(c.col, w.vals[code])
		if err != nil {
			return err
		}
		d.put(c, j, v)
	}
	return nil
}

// ---------------------------------------------------------------------------
// RLE sections

// rleWalk steps through the runs of an RLE section.
type rleWalk struct {
	col  storage.Column
	body []byte
	row  int // first row of the next run
	n    int
}

// next returns the next run: its length and decoded value (a NULL of the
// column kind for a NULL run).
func (w *rleWalk) next() (runLen int, v storage.Value, err error) {
	body := w.body
	if len(body) < 2 {
		return 0, v, fmt.Errorf("compress: short RLE run header")
	}
	hdr := binary.BigEndian.Uint16(body)
	body = body[2:]
	runLen = int(hdr & rleMaxRun)
	if runLen == 0 || w.row+runLen > w.n {
		return 0, v, fmt.Errorf("compress: RLE run of %d rows at row %d", runLen, w.row)
	}
	v = storage.NullValue(w.col.Kind)
	if hdr&0x8000 == 0 {
		ln, adv, err := readLenPrefix(body)
		if err != nil {
			return 0, v, err
		}
		body = body[adv:]
		if len(body) < ln {
			return 0, v, fmt.Errorf("compress: short RLE value")
		}
		if v, err = decodeValue(w.col, body[:ln]); err != nil {
			return 0, v, err
		}
		body = body[ln:]
	}
	w.body = body
	w.row += runLen
	return runLen, v, nil
}

func filterRLE(c *decodeCol, body []byte, n int, sel []bool, selCount int) (int, bool, error) {
	w := rleWalk{col: c.col, body: body, n: n}
	for w.row < n {
		j := w.row
		runLen, v, err := w.next()
		if err != nil {
			return 0, false, err
		}
		if matchesAll(c.preds, v) { // a NULL run never does
			continue
		}
		for r := j; r < j+runLen; r++ {
			if sel[r] {
				sel[r] = false
				selCount--
			}
		}
	}
	return selCount, true, nil
}

func (d *pageDecoder) materializeRLE(c *decodeCol, body []byte, n int) error {
	w := rleWalk{col: c.col, body: body, n: n}
	for w.row < n {
		j := w.row
		runLen, v, err := w.next()
		if err != nil {
			return err
		}
		for r := j; r < j+runLen; r++ {
			d.put(c, r, v)
		}
	}
	return nil
}
