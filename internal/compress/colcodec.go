package compress

import (
	"bytes"
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
// column for the lifetime of the segment. EncodeRows first scans the full row
// set, assigning codes in first-occurrence order and letting each GDICT
// column fall back to plain storage when the dictionary would not pay for
// itself (the same min(dict, plain) policy the size model charges); the
// packer writes the codes that scan assigned, and each page records the code
// width of the largest code it actually holds. After the segment is built the
// dictionary is read-only, so concurrent decoders share it without
// synchronization; predicate verdicts per code are memoized in each decoder
// (see decoder.go), never in the shared state.
type columnCodec struct {
	def       Method
	overrides map[string]Method // lowercased column name -> method

	resolveOnce sync.Once
	resolved    []Method      // per-column method, schema order
	dicts       []*gdictState // per-column dictionary; nil for non-GDICT
	slotted     bool          // any non-RLE column: page pays the slot array
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
	values  []storage.Value // code -> decoded value; strings share one arena string
	entries int64           // the length-prefixed encoded entries, as StateBytes counts them
	plain   bool            // the dictionary lost to plain storage
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
				cc.dicts[ci] = &gdictState{}
			}
			if m != RLE {
				cc.slotted = true
			}
		}
	})
}

// prepare is the segment-level pre-pass: it builds each GDICT column's full
// dictionary in first-occurrence order, through an intern table whose arena
// becomes the dictionary's one string, and elects plain storage for columns
// where the dictionary would not beat ROW-style plain values — the same
// min(dictionary, plain) policy the size model charges. It returns every
// row's code per dictionary-coded column (-1 for NULL; nil for the other
// columns), which the packer writes instead of looking values up again. The
// codes belong to the build, not to the codec: the codec outlives it as the
// segment's decode state and keeps nothing per row.
func (cc *columnCodec) prepare(s *storage.Schema, rows []storage.Row) [][]int32 {
	cc.resolve(s)
	codes := make([][]int32, len(cc.dicts))
	for ci, st := range cc.dicts {
		if st != nil {
			codes[ci] = make([]int32, len(rows))
		}
	}
	// Row-major, so each row is visited once however many columns are GDICT.
	scratch := make([]byte, 0, 64)
	keys := make([]internTable, len(cc.dicts))
	plain := make([]int64, len(cc.dicts))
	nonNull := make([]int64, len(cc.dicts))
	for i, r := range rows {
		for ci, st := range cc.dicts {
			if st == nil {
				continue
			}
			if r[ci].Null {
				codes[ci][i] = -1
				continue
			}
			nonNull[ci]++
			scratch = valueBytes(s.Columns[ci], r[ci], scratch[:0])
			plain[ci] += int64(lenPrefixLen(len(scratch)) + len(scratch))
			codes[ci][i], _ = keys[ci].intern(scratch)
		}
	}
	for ci, st := range cc.dicts {
		if st == nil {
			continue
		}
		vals := keys[ci].strings()
		for _, v := range vals {
			st.entries += int64(lenPrefixLen(len(v)) + len(v))
		}
		if st.plain = st.entries+nonNull[ci]*int64(gdictCodeWidth(len(vals)-1)) >= plain[ci]; st.plain {
			codes[ci] = nil
			continue
		}
		st.values = decodeDict(s.Columns[ci], vals)
	}
	return codes
}

// decodeDict decodes a coded dictionary once, when its segment is built, so a
// page decode copies a code's value instead of decoding it. Entries decode
// through the column's value decoder; a string shares its entry's bytes. An
// entry that does not decode ends the list, and a page code reaching it is
// then out of range.
func decodeDict(c storage.Column, vals []string) []storage.Value {
	_, value, err := kernelFor(GlobalDict, c)
	if err != nil {
		return nil
	}
	out := make([]storage.Value, 0, len(vals))
	for _, e := range vals {
		v, err := value(nil, c.Kind, nil, bytesOf(e), false)
		if err != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

// StateBytes is the size of the codec's segment-level state (the global
// dictionaries) counted as if serialized: per column a mode byte, and per
// dictionary-coded GDICT column a u32 entry count plus the length-prefixed
// entries. A plain-elected column keeps only its mode byte. Designs with no
// GDICT column have no state and count 0.
func (cc *columnCodec) StateBytes() int64 {
	var n int64
	hasDict := false
	for _, st := range cc.dicts {
		n++
		if st == nil {
			continue
		}
		hasDict = true
		if !st.plain {
			n += 4 + st.entries
		}
	}
	if !hasDict {
		return 0
	}
	return n
}

// ---------------------------------------------------------------------------
// Encoding

// EncodeRows runs the GDICT pre-pass over the segment's rows, then packs
// them. An empty segment skips the pre-pass, so its state holds an empty
// dictionary rather than a plain election.
func (cc *columnCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	var codes [][]int32
	if len(rows) > 0 {
		codes = cc.prepare(s, rows)
	}
	return cc.packer(s, rows, codes).pack()
}

// packer returns a packer for the design's pages over the rows, writing the
// codes the pre-pass assigned (none for no rows).
func (cc *columnCodec) packer(s *storage.Schema, rows []storage.Row, codes [][]int32) *packer {
	cc.resolve(s)
	return newPacker(s, pageLayout{methods: cc.resolved, codes: codes, slotted: cc.slotted}, rows)
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
// length-prefixed minimal encoding per non-null row, read from the page's
// value arena.
func appendRowSection(dst []byte, rows []storage.Row, ci int, pv *pageValues) []byte {
	nullAt := len(dst)
	dst = append(dst, make([]byte, (len(rows)+7)/8)...)
	for j, r := range rows {
		if r[ci].Null {
			dst[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		v := pv.at(j)
		dst = appendLenPrefix(dst, len(v))
		dst = append(dst, v...)
	}
	return dst
}

// appendGDictSection stores the page's codes (-1 for NULL) fixed-width
// against the segment-global dictionary. The code width is sized by the
// largest code present on this page.
func appendGDictSection(dst []byte, codes []int32) []byte {
	maxCode := int32(0)
	for _, code := range codes {
		maxCode = max(maxCode, code)
	}
	width := gdictCodeWidth(int(maxCode))
	dst = append(dst, gdictCoded, byte(width))
	nullAt := len(dst)
	dst = append(dst, make([]byte, (len(codes)+7)/8)...)
	for j, code := range codes {
		if code < 0 {
			dst[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		for b := width - 1; b >= 0; b-- {
			dst = append(dst, byte(code>>(8*b)))
		}
	}
	return dst
}

// appendRLESection stores the column as runs of consecutive equal encoded
// values, read from the page's value arena. Run equality is on the encoded
// bytes (bit-exact, so -0.0 and +0.0 stay distinct); NULL runs carry no value
// bytes.
func appendRLESection(dst []byte, rows []storage.Row, ci int, pv *pageValues) []byte {
	emit := func(runLen int, null bool, val []byte) {
		for runLen > 0 {
			chunk := min(runLen, rleMaxRun)
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
	runLen, runNull := 0, false
	for j, r := range rows {
		null := r[ci].Null
		var v []byte
		if !null {
			v = pv.at(j)
		}
		if runLen > 0 && runNull == null && (null || bytes.Equal(prev, v)) {
			runLen++
			continue
		}
		if runLen > 0 {
			emit(runLen, runNull, prev)
		}
		prev, runLen, runNull = v, 1, null
	}
	if runLen > 0 {
		emit(runLen, runNull, prev)
	}
	return dst
}
