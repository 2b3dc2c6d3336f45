package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"cadb/internal/storage"
)

// This file holds the design codec, the one materializing codec: a design is
// a method per column, and a uniform NONE/ROW/PAGE/GDICT/RLE index is the
// design whose columns all share one. Pages are column-major with
// independently framed sections, one per column, each encoded by that
// column's method:
//
//	[u16 rowCount] then per column: [lenPrefix sectionLen][section body]
//
// Section bodies by method:
//
//	NONE:  [null bitmap][full-width value per row (u16 len + bytes for VARCHAR)]
//	ROW:   [null bitmap][lenPrefix + minimal value bytes per non-null row]
//	PAGE:  [null bitmap][prefix][local dictionary][dict bitmap][values]
//	       (see pageColScratch.appendColumn)
//	GDICT: [mode u8] then either [codeWidth u8][null bitmap][fixed-width
//	       codes per non-null row] against the segment-global dictionary
//	       (mode 0) or a ROW-style plain body when the segment pre-pass
//	       found dictionary encoding unprofitable (mode 1)
//	RLE:   runs of [u16 header: bit 15 = NULL run, bits 0-14 = run length]
//	       followed, for value runs, by lenPrefix + minimal value bytes
//
// The section length frame is what makes every method column-selective: a
// decode skips unneeded columns in O(1) regardless of their method.
//
// GDICT is stateful: the codec instance carries one dictionary per GDICT
// column for the lifetime of the segment. Codes are assigned in first-
// occurrence order over the row stream, and each page records the code width
// of the largest code it actually holds — both properties depend only on the
// stream prefix, which keeps chunked (SegmentWriter) encoding byte-identical
// to a whole-slice build. PrepareSegment, run automatically by BuildSegment,
// additionally scans the full row set up front so each GDICT column can fall
// back to plain storage when the dictionary would not pay for itself (the
// same min(dict, plain) policy the size model charges). After the segment is
// built the dictionary is read-only, so concurrent decodes share it without
// synchronization; per-decode memoization (entry values, predicate verdicts)
// lives in call-local state.
type columnCodec struct {
	def       Method
	overrides map[string]Method // lowercased column name -> method

	resolveOnce sync.Once
	resolved    []Method      // per-column method, schema order
	dicts       []*gdictState // per-column dictionary; nil for non-GDICT
	slotted     bool          // any non-RLE column: page pays the slot array
	prepared    bool
}

// GDICT section modes.
const (
	gdictCoded = 0 // codeWidth + null bitmap + fixed-width codes
	gdictPlain = 1 // ROW-style body (pre-pass found the dictionary unprofitable)
)

// rleMaxRun is the longest run one header can carry (bit 15 is the NULL flag).
const rleMaxRun = 0x7FFF

// gdictState is the segment-global dictionary of one GDICT column.
type gdictState struct {
	vals  []string       // code -> encoded value bytes
	codes map[string]int // string columns: encoded value bytes -> code
	nums  map[uint64]int // numeric columns: value bit pattern -> code (cheaper to hash)
	plain bool           // pre-pass elected plain storage
}

// register returns the code of the encoded value, assigning the next one on
// first sight. Only a new value allocates (its dictionary copy).
func (st *gdictState) register(kind storage.Kind, v []byte) int {
	if kind == storage.KindString {
		if code, ok := st.codes[string(v)]; ok {
			return code
		}
	} else if code, ok := st.nums[numKey(kind, v)]; ok {
		return code
	}
	return st.add(kind, string(v))
}

// add appends a dictionary entry.
func (st *gdictState) add(kind storage.Kind, v string) int {
	code := len(st.vals)
	st.vals = append(st.vals, v)
	if kind == storage.KindString {
		st.codes[v] = code
	} else {
		st.nums[numKey(kind, []byte(v))] = code
	}
	return code
}

// numKey restores the 64-bit pattern behind a numeric value's minimal
// encoding: integers drop leading zero bytes, floats trailing ones.
func numKey(kind storage.Kind, v []byte) uint64 {
	var bits uint64
	for _, b := range v {
		bits = bits<<8 | uint64(b)
	}
	if kind == storage.KindFloat {
		bits <<= 8 * (8 - len(v))
	}
	return bits
}

// newColumnCodec returns a fresh design codec instance. Overrides equal to
// the default method are dropped so the design is canonical.
func newColumnCodec(def Method, overrides map[string]Method) *columnCodec {
	var ov map[string]Method
	for k, v := range overrides {
		if v != def {
			if ov == nil {
				ov = make(map[string]Method, len(overrides))
			}
			ov[strings.ToLower(k)] = v
		}
	}
	return &columnCodec{def: def, overrides: ov}
}

// DesignCodec returns the materializing codec for a per-column compression
// design: a default method plus optional per-column overrides (keyed by
// column name, case-insensitive), or nil when the design names an unknown
// method. Every call returns a fresh instance: a codec carries its segment's
// dictionary state and must never be shared across segment builds.
func DesignCodec(def Method, overrides map[string]Method) storage.PageCodec {
	if !HasCodec(def) {
		return nil
	}
	for _, m := range overrides {
		if !HasCodec(m) {
			return nil
		}
	}
	return newColumnCodec(def, overrides)
}

// Name is the method every column resolved to, or "MIXED" when they differ.
// Before the codec has seen its schema only a design without overrides is
// known to be uniform.
func (cc *columnCodec) Name() string {
	m := cc.def
	if len(cc.overrides) > 0 {
		if len(cc.resolved) == 0 {
			return "MIXED"
		}
		m = cc.resolved[0]
		for _, o := range cc.resolved[1:] {
			if o != m {
				return "MIXED"
			}
		}
	}
	return m.String()
}

// resolve fixes the per-column method vector against the first schema the
// codec sees. A codec instance serves exactly one segment (one schema);
// resolution is once so concurrent decodes race-free share the result.
func (cc *columnCodec) resolve(s *storage.Schema) {
	cc.resolveOnce.Do(func() {
		cc.resolved = make([]Method, len(s.Columns))
		cc.dicts = make([]*gdictState, len(s.Columns))
		for ci, c := range s.Columns {
			m := cc.def
			if o, ok := cc.overrides[strings.ToLower(c.Name)]; ok {
				m = o
			}
			cc.resolved[ci] = m
			if m == GlobalDict {
				cc.dicts[ci] = &gdictState{codes: make(map[string]int), nums: make(map[uint64]int)}
			}
			if m != RLE {
				cc.slotted = true
			}
		}
	})
}

// PrepareSegment is the segment-level pre-pass: it builds each GDICT column's
// full dictionary in first-occurrence order and elects plain storage for
// columns where the dictionary would not beat ROW-style plain values — the
// same min(dictionary, plain) policy the size model charges. BuildSegment
// calls it automatically; the streaming SegmentWriter cannot (no full row
// set), so chunked GDICT builds always dictionary-encode.
func (cc *columnCodec) PrepareSegment(s *storage.Schema, rows []storage.Row) error {
	cc.resolve(s)
	if cc.prepared {
		return fmt.Errorf("compress: PrepareSegment called twice")
	}
	// Row-major, so each row is visited once however many columns are GDICT.
	scratch := make([]byte, 0, 64)
	plain := make([]int64, len(cc.dicts))
	nonNull := make([]int64, len(cc.dicts))
	for _, r := range rows {
		for ci, st := range cc.dicts {
			if st == nil || r[ci].Null {
				continue
			}
			nonNull[ci]++
			scratch = valueBytes(s.Columns[ci], r[ci], scratch[:0])
			plain[ci] += int64(lenPrefixSize(len(scratch)) + len(scratch))
			st.register(s.Columns[ci].Kind, scratch)
		}
	}
	for ci, st := range cc.dicts {
		if st == nil {
			continue
		}
		var dictBytes int64
		for _, v := range st.vals {
			dictBytes += int64(lenPrefixSize(len(v)) + len(v))
		}
		st.plain = dictBytes+nonNull[ci]*int64(codeWidth(len(st.vals))) >= plain[ci]
	}
	cc.prepared = true
	return nil
}

// SegmentState serializes the codec's segment-level state (the global
// dictionaries) for the CADBSEG2 state block: per column, a mode byte —
// 0 stateless, 1 dictionary (u32 entry count + lenPrefix entries), 2 plain-
// elected GDICT (dictionary dropped; pages carry plain sections). Designs
// with no GDICT column have nothing to record and return nil.
func (cc *columnCodec) SegmentState() []byte {
	hasDict := false
	for _, st := range cc.dicts {
		if st != nil {
			hasDict = true
			break
		}
	}
	if !hasDict {
		return nil
	}
	var out []byte
	for _, st := range cc.dicts {
		switch {
		case st == nil:
			out = append(out, 0)
		case st.plain:
			out = append(out, 2)
		default:
			out = append(out, 1)
			out = binary.BigEndian.AppendUint32(out, uint32(len(st.vals)))
			for _, v := range st.vals {
				out = appendLenPrefix(out, len(v))
				out = append(out, v...)
			}
		}
	}
	return out
}

// LoadSegmentState rebuilds the codec's state from a CADBSEG2 state block,
// enabling decode of a segment opened from disk in a fresh process. An empty
// block is valid for designs (or empty segments) with nothing recorded.
func (cc *columnCodec) LoadSegmentState(s *storage.Schema, state []byte) error {
	cc.resolve(s)
	if len(state) == 0 {
		return nil
	}
	for ci := range s.Columns {
		if len(state) < 1 {
			return fmt.Errorf("compress: short segment state at column %d", ci)
		}
		mode := state[0]
		state = state[1:]
		st := cc.dicts[ci]
		switch mode {
		case 0:
			if st != nil {
				return fmt.Errorf("compress: GDICT column %d has stateless state", ci)
			}
		case 1, 2:
			if st == nil {
				return fmt.Errorf("compress: non-GDICT column %d has dictionary state", ci)
			}
			if mode == 2 {
				st.plain = true
				continue
			}
			if len(state) < 4 {
				return fmt.Errorf("compress: short dictionary header at column %d", ci)
			}
			count := int(binary.BigEndian.Uint32(state))
			state = state[4:]
			st.vals = make([]string, 0, count)
			for k := 0; k < count; k++ {
				n, adv, err := readLenPrefix(state)
				if err != nil {
					return err
				}
				state = state[adv:]
				if len(state) < n {
					return fmt.Errorf("compress: short dictionary entry at column %d", ci)
				}
				st.add(s.Columns[ci].Kind, string(state[:n]))
				state = state[n:]
			}
		default:
			return fmt.Errorf("compress: unknown state mode %d at column %d", mode, ci)
		}
	}
	cc.prepared = true
	return nil
}

// ColumnMethodIDs returns the per-column method bytes recorded in the
// CADBSEG2 header's design vector.
func (cc *columnCodec) ColumnMethodIDs(s *storage.Schema) []byte {
	cc.resolve(s)
	out := make([]byte, len(cc.resolved))
	for i, m := range cc.resolved {
		out[i] = byte(m)
	}
	return out
}

// ---------------------------------------------------------------------------
// Encoding

func (cc *columnCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	return cc.packer(s).pack(rows)
}

// packer returns a packer for the design's pages. Sizing a page registers the
// dictionary values of the row that overflowed it; that is harmless because
// codes are assigned in stream order either way.
func (cc *columnCodec) packer(s *storage.Schema) *packer {
	cc.resolve(s)
	return newPacker(s, pageLayout{methods: cc.resolved, dicts: cc.dicts, slotted: cc.slotted})
}

// appendNoneSection stores the column uncompressed: a null bitmap plus every
// row's full-width value (VARCHAR: u16 length + bytes; NULLs zero-filled).
func appendNoneSection(dst []byte, c storage.Column, rows []storage.Row, ci int) []byte {
	nullAt := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	for j, r := range rows {
		if r[ci].Null {
			dst[nullAt+j/8] |= 1 << (uint(j) % 8)
		}
		dst = storage.AppendValue(dst, c, r[ci])
	}
	return dst
}

// appendRowSection stores the column ROW-compressed: a null bitmap plus a
// length-prefixed minimal encoding per non-null row.
func appendRowSection(dst []byte, c storage.Column, rows []storage.Row, ci int, scratch []byte) ([]byte, []byte) {
	nullAt := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	for j, r := range rows {
		if r[ci].Null {
			dst[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		scratch = valueBytes(c, r[ci], scratch[:0])
		dst = appendLenPrefix(dst, len(scratch))
		dst = append(dst, scratch...)
	}
	return dst, scratch
}

// appendGDictSection stores the column as fixed-width codes against the
// segment-global dictionary (or ROW-style plain when the pre-pass elected
// it). The code width is sized by the largest code present on this page, so
// chunked encodes reproduce whole-slice bytes.
func (p *packer) appendGDictSection(dst []byte, c storage.Column, rows []storage.Row, ci int) []byte {
	st := p.lay.dicts[ci]
	if st.plain {
		dst = append(dst, gdictPlain)
		dst, p.scratch = appendRowSection(dst, c, rows, ci, p.scratch)
		return dst
	}
	codes := p.codes[:0]
	maxCode := 0
	for _, r := range rows {
		if r[ci].Null {
			continue
		}
		p.scratch = valueBytes(c, r[ci], p.scratch[:0])
		code := st.register(c.Kind, p.scratch)
		codes = append(codes, code)
		if code > maxCode {
			maxCode = code
		}
	}
	p.codes = codes
	width := gdictCodeWidth(maxCode)
	dst = append(dst, gdictCoded, byte(width))
	nullAt := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	k := 0
	for j, r := range rows {
		if r[ci].Null {
			dst[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		code := codes[k]
		k++
		for b := width - 1; b >= 0; b-- {
			dst = append(dst, byte(code>>(8*b)))
		}
	}
	return dst
}

// appendRLESection stores the column as runs of consecutive equal encoded
// values. Run equality is on the encoded bytes (bit-exact, so -0.0 and +0.0
// stay distinct); NULL runs carry no value bytes.
func appendRLESection(dst []byte, c storage.Column, rows []storage.Row, ci int, scratch []byte) ([]byte, []byte) {
	n := len(rows)
	emit := func(runLen int, null bool, val []byte) {
		for runLen > 0 {
			chunk := runLen
			if chunk > rleMaxRun {
				chunk = rleMaxRun
			}
			hdr := uint16(chunk)
			if null {
				hdr |= 0x8000
			}
			dst = append(dst, byte(hdr>>8), byte(hdr))
			if !null {
				dst = appendLenPrefix(dst, len(val))
				dst = append(dst, val...)
			}
			runLen -= chunk
		}
	}
	var prev []byte
	runLen := 0
	runNull := false
	for j := 0; j < n; j++ {
		v := rows[j][ci]
		if v.Null {
			if runLen > 0 && runNull {
				runLen++
				continue
			}
			if runLen > 0 {
				emit(runLen, runNull, prev)
			}
			runLen, runNull = 1, true
			continue
		}
		scratch = valueBytes(c, v, scratch[:0])
		if runLen > 0 && !runNull && string(prev) == string(scratch) {
			runLen++
			continue
		}
		if runLen > 0 {
			emit(runLen, runNull, prev)
		}
		prev = append(prev[:0], scratch...)
		runLen, runNull = 1, false
	}
	if runLen > 0 {
		emit(runLen, runNull, prev)
	}
	return dst, scratch
}

// ---------------------------------------------------------------------------
// Decoding

// parseSections splits the page payload into per-column section bodies up to
// and including column last.
func parseSections(payload []byte, last int) ([][]byte, error) {
	sections := make([][]byte, last+1)
	rest := payload
	for ci := 0; ci <= last; ci++ {
		ln, adv, err := readLenPrefix(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[adv:]
		if len(rest) < ln {
			return nil, fmt.Errorf("compress: short column section %d", ci)
		}
		sections[ci] = rest[:ln]
		rest = rest[ln:]
	}
	return sections, nil
}

func (cc *columnCodec) DecodeColumns(s *storage.Schema, payload []byte, nrows int, spec *storage.DecodeSpec) (*storage.DecodedPage, error) {
	cc.resolve(s)
	if len(payload) < 2 {
		return nil, fmt.Errorf("compress: short %s page", cc.Name())
	}
	n := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	if n != nrows {
		return nil, fmt.Errorf("compress: %s header says %d rows, directory says %d", cc.Name(), n, nrows)
	}

	sel := make([]bool, n)
	selCount := 0
	if spec.Slots == nil {
		for j := range sel {
			sel[j] = true
		}
		selCount = n
	} else {
		for _, sl := range spec.Slots {
			if sl >= 0 && sl < n && !sel[sl] {
				sel[sl] = true
				selCount++
			}
		}
	}

	predsByCol := make(map[int][]storage.ColPredicate, len(spec.Preds))
	last := -1
	for _, p := range spec.Preds {
		predsByCol[p.Col] = append(predsByCol[p.Col], p)
		if p.Col > last {
			last = p.Col
		}
	}
	needSet := make(map[int]bool, len(spec.Needed))
	for _, ci := range spec.Needed {
		needSet[ci] = true
		if ci > last {
			last = ci
		}
	}
	if last >= len(s.Columns) {
		return nil, fmt.Errorf("compress: column %d out of range", last)
	}

	out := &storage.DecodedPage{}
	if last < 0 {
		out.TuplesDecoded = int64(selCount)
		if selCount > 0 {
			out.Slots = make([]int, 0, selCount)
			out.Rows = make([]storage.Row, 0, selCount)
			for j := 0; j < n; j++ {
				if sel[j] {
					out.Slots = append(out.Slots, j)
					out.Rows = append(out.Rows, storage.Row{})
				}
			}
		}
		return out, nil
	}
	sections, err := parseSections(payload, last)
	if err != nil {
		return nil, err
	}
	counted := make(map[int]bool, len(spec.Needed))
	scratch := make([]byte, 0, 64)

	// Pass 1: evaluate pushed predicates column by column, narrowing the
	// selection. Each method exploits its own layout: GDICT evaluates once
	// per dictionary code, RLE once per run, PAGE once per local-dictionary
	// entry; NONE/ROW walk the section but decode only selected rows.
	for ci := 0; ci <= last; ci++ {
		ps := predsByCol[ci]
		if len(ps) == 0 || selCount == 0 {
			continue
		}
		c := s.Columns[ci]
		touched := false
		selCount, scratch, touched, err = cc.filterSection(c, ci, sections[ci], n, ps, sel, selCount, scratch)
		if err != nil {
			return nil, err
		}
		if touched && !counted[ci] {
			counted[ci] = true
			out.ColumnsDecoded++
		}
	}

	out.TuplesDecoded = int64(selCount)
	if selCount == 0 {
		return out, nil
	}

	// Pass 2: materialize the needed columns of the survivors.
	outIdx := make([]int, n)
	out.Slots = make([]int, 0, selCount)
	for j := 0; j < n; j++ {
		if sel[j] {
			outIdx[j] = len(out.Slots)
			out.Slots = append(out.Slots, j)
		} else {
			outIdx[j] = -1
		}
	}
	// One slab backs every output row; the full slice expression keeps an
	// append to one row from running into the next.
	out.Rows = make([]storage.Row, selCount)
	w := len(spec.Needed)
	slab := make([]storage.Value, selCount*w)
	for i := range out.Rows {
		out.Rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	for k, ci := range spec.Needed {
		if !counted[ci] {
			counted[ci] = true
			out.ColumnsDecoded++
		}
		c := s.Columns[ci]
		set := func(j int, v storage.Value) { // rows outside the selection are dropped
			if i := outIdx[j]; i >= 0 {
				slab[i*w+k] = v
			}
		}
		scratch, err = cc.materializeSection(c, ci, sections[ci], n, sel, set, scratch)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// filterSection narrows sel by evaluating preds against one column section,
// returning the new selection count and whether any value bytes were decoded
// (columns decided from bitmaps alone are free).
func (cc *columnCodec) filterSection(c storage.Column, ci int, body []byte, n int, preds []storage.ColPredicate, sel []bool, selCount int, scratch []byte) (int, []byte, bool, error) {
	m := cc.resolved[ci]
	if m == GlobalDict {
		if len(body) < 1 {
			return 0, scratch, false, fmt.Errorf("compress: short GDICT section")
		}
		if body[0] == gdictPlain {
			m, body = Row, body[1:]
		} else {
			return cc.filterGDict(c, ci, body[1:], n, preds, sel, selCount, scratch)
		}
	}
	switch m {
	case None, Row:
		// A predicated column fails every NULL row; decided from the bitmap.
		bitmapLen := (n + 7) / 8
		if len(body) < bitmapLen {
			return 0, scratch, false, fmt.Errorf("compress: short %s section", m)
		}
		nulls := body[:bitmapLen]
		for j := 0; j < n; j++ {
			if sel[j] && nulls[j/8]&(1<<(uint(j)%8)) != 0 {
				sel[j] = false
				selCount--
			}
		}
		if selCount == 0 {
			return 0, scratch, false, nil
		}
		err := visitPlainSection(c, m, body, n, func(j int, v storage.Value) {
			if !sel[j] {
				return
			}
			for _, p := range preds {
				if !p.Matches(v) {
					sel[j] = false
					selCount--
					return
				}
			}
		})
		return selCount, scratch, true, err
	case Page:
		col, err := parsePageColumn(body, n)
		if err != nil {
			return 0, scratch, false, err
		}
		return filterPageColumn(c, &col, n, preds, sel, selCount, scratch)
	case RLE:
		at := 0
		j := 0
		for j < n {
			if len(body) < at+2 {
				return 0, scratch, false, fmt.Errorf("compress: short RLE run header")
			}
			hdr := binary.BigEndian.Uint16(body[at:])
			at += 2
			runLen := int(hdr & rleMaxRun)
			null := hdr&0x8000 != 0
			if runLen == 0 || j+runLen > n {
				return 0, scratch, false, fmt.Errorf("compress: RLE run of %d rows at row %d", runLen, j)
			}
			ok := false
			if !null {
				ln, adv, err := readLenPrefix(body[at:])
				if err != nil {
					return 0, scratch, false, err
				}
				at += adv
				if len(body) < at+ln {
					return 0, scratch, false, fmt.Errorf("compress: short RLE value")
				}
				v, err := decodeValueBytes(c, body[at:at+ln])
				if err != nil {
					return 0, scratch, false, err
				}
				at += ln
				ok = true
				for _, p := range preds {
					if !p.Matches(v) {
						ok = false
						break
					}
				}
			}
			if !ok {
				for r := j; r < j+runLen; r++ {
					if sel[r] {
						sel[r] = false
						selCount--
					}
				}
			}
			j += runLen
		}
		return selCount, scratch, true, nil
	}
	return 0, scratch, false, fmt.Errorf("compress: bad column method %d", m)
}

// filterGDict evaluates predicates once per dictionary code present on the
// page; the verdict memo is call-local so concurrent decodes never mutate
// shared dictionary state.
func (cc *columnCodec) filterGDict(c storage.Column, ci int, body []byte, n int, preds []storage.ColPredicate, sel []bool, selCount int, scratch []byte) (int, []byte, bool, error) {
	st := cc.dicts[ci]
	bitmapLen := (n + 7) / 8
	if len(body) < 1+bitmapLen {
		return 0, scratch, false, fmt.Errorf("compress: short GDICT section")
	}
	width := int(body[0])
	if width < 1 || width > 4 {
		return 0, scratch, false, fmt.Errorf("compress: GDICT code width %d", width)
	}
	nulls := body[1 : 1+bitmapLen]
	codes := body[1+bitmapLen:]
	verdict := make(map[int]bool)
	at := 0
	for j := 0; j < n; j++ {
		if nulls[j/8]&(1<<(uint(j)%8)) != 0 {
			if sel[j] {
				sel[j] = false
				selCount--
			}
			continue
		}
		if len(codes) < at+width {
			return 0, scratch, false, fmt.Errorf("compress: short GDICT codes")
		}
		code := 0
		for b := 0; b < width; b++ {
			code = code<<8 | int(codes[at+b])
		}
		at += width
		if !sel[j] {
			continue
		}
		ok, seen := verdict[code]
		if !seen {
			if code >= len(st.vals) {
				return 0, scratch, false, fmt.Errorf("compress: GDICT code %d out of range", code)
			}
			v, err := decodeValueBytes(c, []byte(st.vals[code]))
			if err != nil {
				return 0, scratch, false, err
			}
			ok = true
			for _, p := range preds {
				if !p.Matches(v) {
					ok = false
					break
				}
			}
			verdict[code] = ok
		}
		if !ok {
			sel[j] = false
			selCount--
		}
	}
	return selCount, scratch, true, nil
}

// materializeSection reconstructs the selected rows' values of one column,
// decoding dictionary entries and run values at most once each.
func (cc *columnCodec) materializeSection(c storage.Column, ci int, body []byte, n int, sel []bool, set func(j int, v storage.Value), scratch []byte) ([]byte, error) {
	m := cc.resolved[ci]
	if m == GlobalDict {
		if len(body) < 1 {
			return scratch, fmt.Errorf("compress: short GDICT section")
		}
		if body[0] == gdictPlain {
			m, body = Row, body[1:]
		} else {
			st := cc.dicts[ci]
			bitmapLen := (n + 7) / 8
			rest := body[1:]
			if len(rest) < 1+bitmapLen {
				return scratch, fmt.Errorf("compress: short GDICT section")
			}
			width := int(rest[0])
			if width < 1 || width > 4 {
				return scratch, fmt.Errorf("compress: GDICT code width %d", width)
			}
			nulls := rest[1 : 1+bitmapLen]
			codes := rest[1+bitmapLen:]
			cache := make(map[int]storage.Value)
			at := 0
			for j := 0; j < n; j++ {
				if nulls[j/8]&(1<<(uint(j)%8)) != 0 {
					if sel[j] {
						set(j, storage.NullValue(c.Kind))
					}
					continue
				}
				if len(codes) < at+width {
					return scratch, fmt.Errorf("compress: short GDICT codes")
				}
				code := 0
				for b := 0; b < width; b++ {
					code = code<<8 | int(codes[at+b])
				}
				at += width
				if !sel[j] {
					continue
				}
				v, seen := cache[code]
				if !seen {
					if code >= len(st.vals) {
						return scratch, fmt.Errorf("compress: GDICT code %d out of range", code)
					}
					var err error
					v, err = decodeValueBytes(c, []byte(st.vals[code]))
					if err != nil {
						return scratch, err
					}
					cache[code] = v
				}
				set(j, v)
			}
			return scratch, nil
		}
	}
	switch m {
	case None, Row:
		bitmapLen := (n + 7) / 8
		if len(body) < bitmapLen {
			return scratch, fmt.Errorf("compress: short %s section", m)
		}
		nulls := body[:bitmapLen]
		for j := 0; j < n; j++ {
			if sel[j] && nulls[j/8]&(1<<(uint(j)%8)) != 0 {
				set(j, storage.NullValue(c.Kind))
			}
		}
		return scratch, visitPlainSection(c, m, body, n, set)
	case Page:
		col, err := parsePageColumn(body, n)
		if err != nil {
			return scratch, err
		}
		return materializePageColumn(c, &col, n, sel, set, scratch)
	case RLE:
		at := 0
		j := 0
		for j < n {
			if len(body) < at+2 {
				return scratch, fmt.Errorf("compress: short RLE run header")
			}
			hdr := binary.BigEndian.Uint16(body[at:])
			at += 2
			runLen := int(hdr & rleMaxRun)
			null := hdr&0x8000 != 0
			if runLen == 0 || j+runLen > n {
				return scratch, fmt.Errorf("compress: RLE run of %d rows at row %d", runLen, j)
			}
			var v storage.Value
			if null {
				v = storage.NullValue(c.Kind)
			} else {
				ln, adv, err := readLenPrefix(body[at:])
				if err != nil {
					return scratch, err
				}
				at += adv
				if len(body) < at+ln {
					return scratch, fmt.Errorf("compress: short RLE value")
				}
				v, err = decodeValueBytes(c, body[at:at+ln])
				if err != nil {
					return scratch, err
				}
				at += ln
			}
			for r := j; r < j+runLen; r++ {
				if sel[r] {
					set(r, v)
				}
			}
			j += runLen
		}
		return scratch, nil
	}
	return scratch, fmt.Errorf("compress: bad column method %d", m)
}

// visitPlainSection walks a NONE or ROW column section in row order, calling
// visit for every non-null row with its decoded value.
func visitPlainSection(c storage.Column, m Method, body []byte, n int, visit func(j int, v storage.Value)) error {
	bitmapLen := (n + 7) / 8
	if len(body) < bitmapLen {
		return fmt.Errorf("compress: short %s section", m)
	}
	nulls := body[:bitmapLen]
	at := bitmapLen
	isNull := func(j int) bool { return nulls[j/8]&(1<<(uint(j)%8)) != 0 }
	if m == Row {
		for j := 0; j < n; j++ {
			if isNull(j) {
				continue
			}
			ln, adv, err := readLenPrefix(body[at:])
			if err != nil {
				return err
			}
			at += adv
			if len(body) < at+ln {
				return fmt.Errorf("compress: short ROW section value")
			}
			v, err := decodeValueBytes(c, body[at:at+ln])
			if err != nil {
				return err
			}
			at += ln
			visit(j, v)
		}
		return nil
	}
	for j := 0; j < n; j++ {
		null := isNull(j)
		switch c.Kind {
		case storage.KindInt, storage.KindFloat:
			if len(body) < at+8 {
				return fmt.Errorf("compress: short NONE section")
			}
			if !null {
				u := binary.BigEndian.Uint64(body[at:])
				if c.Kind == storage.KindInt {
					visit(j, storage.Value{Kind: storage.KindInt, Int: int64(u)})
				} else {
					visit(j, storage.Value{Kind: storage.KindFloat, Float: math.Float64frombits(u)})
				}
			}
			at += 8
		case storage.KindDate:
			if len(body) < at+4 {
				return fmt.Errorf("compress: short NONE section")
			}
			if !null {
				u := binary.BigEndian.Uint32(body[at:])
				visit(j, storage.Value{Kind: storage.KindDate, Int: int64(int32(u))})
			}
			at += 4
		case storage.KindString:
			if c.FixedWidth > 0 {
				if len(body) < at+c.FixedWidth {
					return fmt.Errorf("compress: short NONE section")
				}
				if !null {
					raw := body[at : at+c.FixedWidth]
					end := len(raw)
					for end > 0 && raw[end-1] == ' ' {
						end--
					}
					visit(j, storage.Value{Kind: storage.KindString, Str: string(raw[:end])})
				}
				at += c.FixedWidth
			} else {
				if len(body) < at+2 {
					return fmt.Errorf("compress: short NONE section")
				}
				ln := int(binary.BigEndian.Uint16(body[at:]))
				at += 2
				if len(body) < at+ln {
					return fmt.Errorf("compress: short NONE section")
				}
				if !null {
					visit(j, storage.Value{Kind: storage.KindString, Str: string(body[at : at+ln])})
				}
				at += ln
			}
		}
	}
	return nil
}
