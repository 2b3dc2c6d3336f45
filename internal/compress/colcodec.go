package compress

import (
	"encoding/binary"
	"fmt"
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
// built the dictionary is read-only, so concurrent decoders share it without
// synchronization; predicate verdicts per code are memoized in each decoder
// (see decoder.go), never in the shared state.
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
