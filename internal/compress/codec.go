package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"cadb/internal/storage"
)

// This file holds the materializing page codecs: the encode/decode halves of
// the compression methods whose sizes SizeRows models. NONE and ROW produce
// byte totals identical to their size model by construction. PAGE shares the
// model's dictionary policy (suffixes occurring at least twice) but diverges
// from it in two expected ways: it packs pages by compressed fit (the model
// scopes dictionaries to the *uncompressed* PackRows groups, so group
// boundaries — and hence dictionary/prefix scopes — differ), and it pays
// real-format overheads the model omits (row counts, dictionary bitmaps).
// That combined gap is what the ext-measured experiment reports.
//
// Value round-trips are exact for ints, dates, floats (bit-level) and
// variable-width strings. CHAR(n) columns are normalized the same way the
// uncompressed row codec is: values are truncated to n bytes and trailing
// blanks are stripped on decode.

// Codec returns the materializing page codec for the method. NONE/ROW/PAGE
// are stateless singletons; GlobalDict and RLE return a fresh per-column
// design codec per call, because GDICT carries segment-level dictionary
// state — a codec instance must never be shared across segment builds.
func Codec(m Method) storage.PageCodec {
	switch m {
	case None:
		return noneCodec{}
	case Row:
		return rowCodec{}
	case Page:
		return pageCodec{}
	case GlobalDict, RLE:
		return newColumnCodec(m, nil)
	}
	return nil
}

// HasCodec reports whether the method can be materialized into segments.
// Every recommendable method now materializes.
func HasCodec(m Method) bool { return Codec(m) != nil }

// ---------------------------------------------------------------------------
// Shared length-prefix and value helpers

// appendLenPrefix appends the length descriptor lenPrefixSize models: one
// byte below 0x80, two bytes (0x80|hi, lo) up to 0x7EFF. Longer values —
// possible only inside overflow runs — escape to 0xFF plus a 4-byte length,
// a real-format cost the size model does not charge.
func appendLenPrefix(dst []byte, n int) []byte {
	switch {
	case n < 0x80:
		return append(dst, byte(n))
	case n < 0x7F00:
		return append(dst, 0x80|byte(n>>8), byte(n))
	default:
		return append(dst, 0xFF, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// readLenPrefix decodes appendLenPrefix, returning the length and the bytes
// consumed.
func readLenPrefix(src []byte) (int, int, error) {
	if len(src) == 0 {
		return 0, 0, fmt.Errorf("compress: truncated length prefix")
	}
	b0 := src[0]
	switch {
	case b0 < 0x80:
		return int(b0), 1, nil
	case b0 != 0xFF:
		if len(src) < 2 {
			return 0, 0, fmt.Errorf("compress: truncated length prefix")
		}
		return int(b0&0x7F)<<8 | int(src[1]), 2, nil
	default:
		if len(src) < 5 {
			return 0, 0, fmt.Errorf("compress: truncated length prefix")
		}
		return int(binary.BigEndian.Uint32(src[1:5])), 5, nil
	}
}

// decodeValueBytes is the inverse of valueBytes: reconstruct a value from its
// minimal encoding.
func decodeValueBytes(c storage.Column, b []byte) (storage.Value, error) {
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte integer", len(b))
		}
		var u uint64
		for _, x := range b {
			u = u<<8 | uint64(x)
		}
		v := int64(u>>1) ^ -int64(u&1) // un-zigzag
		return storage.Value{Kind: c.Kind, Int: v}, nil
	case storage.KindFloat:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte float", len(b))
		}
		var buf [8]byte
		copy(buf[:], b)
		return storage.FloatVal(math.Float64frombits(binary.BigEndian.Uint64(buf[:]))), nil
	case storage.KindString:
		return storage.StringVal(string(b)), nil
	}
	return storage.Value{}, fmt.Errorf("compress: unknown kind %v", c.Kind)
}

// ---------------------------------------------------------------------------
// NONE: the plain slotted-page row format

type noneCodec struct{}

func (noneCodec) Name() string { return None.String() }

func (noneCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	groups, _ := storage.PackRows(s, rows)
	out := make([]storage.EncodedPage, 0, len(groups))
	for _, g := range groups {
		var payload []byte
		for _, r := range rows[g.Start:g.End] {
			payload = storage.EncodeRow(s, r, payload)
		}
		out = append(out, storage.EncodedPage{
			Payload:        payload,
			Rows:           g.End - g.Start,
			AccountedBytes: g.Bytes,
		})
	}
	return out, nil
}

func (noneCodec) DecodePage(s *storage.Schema, payload []byte, nrows int) ([]storage.Row, error) {
	out := make([]storage.Row, 0, nrows)
	for len(out) < nrows {
		r, n, err := storage.DecodeRow(s, payload)
		if err != nil {
			return nil, err
		}
		payload = payload[n:]
		out = append(out, r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// ROW: null/blank suppression with per-value minimal encodings

type rowCodec struct{}

func (rowCodec) Name() string { return Row.String() }

// encodeRowCompressed appends one ROW-compressed row: null bitmap, then a
// length-prefixed minimal encoding per non-null column — the exact layout
// sizeRowCompressed charges for.
func encodeRowCompressed(s *storage.Schema, r storage.Row, dst []byte) []byte {
	bitmapAt := len(dst)
	dst = append(dst, make([]byte, (len(s.Columns)+7)/8)...)
	var scratch [64]byte
	for i, c := range s.Columns {
		v := r[i]
		if v.Null {
			dst[bitmapAt+i/8] |= 1 << (uint(i) % 8)
			continue
		}
		b := valueBytes(c, v, scratch[:0])
		dst = appendLenPrefix(dst, len(b))
		dst = append(dst, b...)
	}
	return dst
}

func (rowCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	var out []storage.EncodedPage
	var payload []byte
	inPage, used := 0, 0
	flush := func() {
		if inPage > 0 {
			p := make([]byte, len(payload))
			copy(p, payload)
			out = append(out, storage.EncodedPage{Payload: p, Rows: inPage, AccountedBytes: used})
			payload = payload[:0]
			inPage, used = 0, 0
		}
	}
	for _, r := range rows {
		at := len(payload)
		payload = encodeRowCompressed(s, r, payload)
		sz := len(payload) - at + storage.SlotSize
		if sz > storage.UsablePageBytes {
			// Oversized row: give it an overflow run of its own.
			enc := append([]byte(nil), payload[at:]...)
			payload = payload[:at]
			flush()
			out = append(out, storage.EncodedPage{Payload: enc, Rows: 1, AccountedBytes: sz})
			continue
		}
		if used+sz > storage.UsablePageBytes && used > 0 {
			enc := append([]byte(nil), payload[at:]...)
			payload = payload[:at]
			flush()
			payload = append(payload, enc...)
		}
		inPage++
		used += sz
	}
	flush()
	return out, nil
}

func (rowCodec) DecodePage(s *storage.Schema, payload []byte, nrows int) ([]storage.Row, error) {
	bitmapLen := (len(s.Columns) + 7) / 8
	out := make([]storage.Row, 0, nrows)
	for len(out) < nrows {
		if len(payload) < bitmapLen {
			return nil, fmt.Errorf("compress: short ROW page")
		}
		bitmap := payload[:bitmapLen]
		payload = payload[bitmapLen:]
		row := make(storage.Row, len(s.Columns))
		for i, c := range s.Columns {
			if bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
				row[i] = storage.NullValue(c.Kind)
				continue
			}
			n, adv, err := readLenPrefix(payload)
			if err != nil {
				return nil, err
			}
			payload = payload[adv:]
			if len(payload) < n {
				return nil, fmt.Errorf("compress: short ROW value")
			}
			v, err := decodeValueBytes(c, payload[:n])
			if err != nil {
				return nil, err
			}
			payload = payload[n:]
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// PAGE: per-page column prefix + local dictionary, column-major layout

type pageCodec struct{}

func (pageCodec) Name() string { return Page.String() }

// EncodeRows lays every page out column-major:
//
//	[u16 rowCount] then per column:
//	[null bitmap][prefix][u16 dictCount][dict entries][dict bitmap][values]
//
// where values are stored in row order as dictionary codes (for suffixes
// occurring at least twice, per the size model's policy) or length-prefixed
// literal suffixes.
func (pageCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	return uniformPagePacker(s).pack(rows)
}

func uniformPagePacker(s *storage.Schema) *packer {
	methods := make([]Method, len(s.Columns))
	for i := range methods {
		methods[i] = Page
	}
	return newPacker(s, pageLayout{methods: methods, dicts: make([]*gdictState, len(methods)), slotted: true})
}

// pageColScratch is the working memory of a PAGE column encode, reused from
// section to section: the encoded values back to back, and the page-local
// dictionary keyed by suffix.
type pageColScratch struct {
	arena []byte
	end   []int            // end[j] is the arena offset just past row j's value
	ids   []int32          // row -> slot in count/first/code (unset for NULLs)
	index map[string]int32 // suffix -> slot
	count []int32
	first []int32 // first row holding the suffix
	code  []int32 // dictionary code, -1 for suffixes stored as literals
}

// appendColumn appends one PAGE column section — null bitmap, prefix, local
// dictionary, dictionary bitmap, values. PAGE columns inside per-column
// design pages reuse it, so parsePageColumn reads both.
func (ps *pageColScratch) appendColumn(payload []byte, c storage.Column, rows []storage.Row, ci int) ([]byte, error) {
	n := len(rows)
	bitmapLen := (n + 7) / 8
	// Null bitmap (bit j set = row j is NULL), encoded values, and the
	// common prefix across the non-null ones.
	nullAt := len(payload)
	payload = append(payload, make([]byte, bitmapLen)...)
	ps.arena, ps.end, ps.ids = ps.arena[:0], ps.end[:0], ps.ids[:0]
	prefixAt, prefixLen := 0, -1
	for j, r := range rows {
		at := len(ps.arena)
		if r[ci].Null {
			payload[nullAt+j/8] |= 1 << (uint(j) % 8)
		} else {
			ps.arena = valueBytes(c, r[ci], ps.arena)
			if prefixLen < 0 {
				prefixAt, prefixLen = at, len(ps.arena)-at
			} else {
				prefixLen = commonPrefixLen(ps.arena[prefixAt:prefixAt+prefixLen], ps.arena[at:])
			}
		}
		ps.end = append(ps.end, len(ps.arena))
		ps.ids = append(ps.ids, -1)
	}
	prefix := ps.arena[prefixAt : prefixAt+max(prefixLen, 0)]
	payload = appendLenPrefix(payload, len(prefix))
	payload = append(payload, prefix...)
	// Local dictionary: suffixes occurring at least twice, codes assigned
	// in first-occurrence order.
	if ps.index == nil {
		ps.index = make(map[string]int32)
	}
	clear(ps.index)
	ps.count, ps.first, ps.code = ps.count[:0], ps.first[:0], ps.code[:0]
	suffix := func(j int) []byte {
		at := 0
		if j > 0 {
			at = ps.end[j-1]
		}
		return ps.arena[at+len(prefix) : ps.end[j]]
	}
	for j, r := range rows {
		if r[ci].Null {
			continue
		}
		sfx := suffix(j)
		id, ok := ps.index[string(sfx)]
		if !ok {
			id = int32(len(ps.count))
			ps.index[string(sfx)] = id
			ps.count = append(ps.count, 0)
			ps.first = append(ps.first, int32(j))
		}
		ps.count[id]++
		ps.ids[j] = id
	}
	dictAtCount := len(payload)
	payload = append(payload, 0, 0)
	dictLen := 0
	for id, cnt := range ps.count {
		if cnt < 2 {
			ps.code = append(ps.code, -1)
			continue
		}
		ps.code = append(ps.code, int32(dictLen))
		dictLen++
		sfx := suffix(int(ps.first[id]))
		payload = appendLenPrefix(payload, len(sfx))
		payload = append(payload, sfx...)
	}
	if dictLen > 0xFFFF {
		return nil, fmt.Errorf("compress: page dictionary of %d entries", dictLen)
	}
	binary.BigEndian.PutUint16(payload[dictAtCount:], uint16(dictLen))
	// Dictionary bitmap (bit j set = row j stored as a code), then the
	// values themselves.
	dictAt := len(payload)
	payload = append(payload, make([]byte, bitmapLen)...)
	for j, r := range rows {
		if r[ci].Null {
			continue
		}
		if code := ps.code[ps.ids[j]]; code >= 0 {
			payload[dictAt+j/8] |= 1 << (uint(j) % 8)
			if dictLen > 255 {
				payload = append(payload, byte(code>>8))
			}
			payload = append(payload, byte(code))
		} else {
			sfx := suffix(j)
			payload = appendLenPrefix(payload, len(sfx))
			payload = append(payload, sfx...)
		}
	}
	return payload, nil
}

func (pageCodec) DecodePage(s *storage.Schema, payload []byte, nrows int) ([]storage.Row, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("compress: short PAGE page")
	}
	n := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	if n != nrows {
		return nil, fmt.Errorf("compress: PAGE header says %d rows, directory says %d", n, nrows)
	}
	bitmapLen := (n + 7) / 8
	out := make([]storage.Row, n)
	for j := range out {
		out[j] = make(storage.Row, len(s.Columns))
	}
	for ci, c := range s.Columns {
		if len(payload) < bitmapLen {
			return nil, fmt.Errorf("compress: short PAGE null bitmap")
		}
		nulls := payload[:bitmapLen]
		payload = payload[bitmapLen:]
		pn, adv, err := readLenPrefix(payload)
		if err != nil {
			return nil, err
		}
		payload = payload[adv:]
		if len(payload) < pn {
			return nil, fmt.Errorf("compress: short PAGE prefix")
		}
		prefix := string(payload[:pn])
		payload = payload[pn:]
		if len(payload) < 2 {
			return nil, fmt.Errorf("compress: short PAGE dictionary count")
		}
		dictCount := int(binary.BigEndian.Uint16(payload[:2]))
		payload = payload[2:]
		dict := make([]string, dictCount)
		for i := range dict {
			dn, adv, err := readLenPrefix(payload)
			if err != nil {
				return nil, err
			}
			payload = payload[adv:]
			if len(payload) < dn {
				return nil, fmt.Errorf("compress: short PAGE dictionary entry")
			}
			dict[i] = string(payload[:dn])
			payload = payload[dn:]
		}
		codeSize := 1
		if dictCount > 255 {
			codeSize = 2
		}
		if len(payload) < bitmapLen {
			return nil, fmt.Errorf("compress: short PAGE dictionary bitmap")
		}
		coded := payload[:bitmapLen]
		payload = payload[bitmapLen:]
		for j := 0; j < n; j++ {
			if nulls[j/8]&(1<<(uint(j)%8)) != 0 {
				out[j][ci] = storage.NullValue(c.Kind)
				continue
			}
			var suffix string
			if coded[j/8]&(1<<(uint(j)%8)) != 0 {
				if len(payload) < codeSize {
					return nil, fmt.Errorf("compress: short PAGE code")
				}
				code := int(payload[0])
				if codeSize == 2 {
					code = code<<8 | int(payload[1])
				}
				payload = payload[codeSize:]
				if code >= dictCount {
					return nil, fmt.Errorf("compress: PAGE code %d out of range", code)
				}
				suffix = dict[code]
			} else {
				ln, adv, err := readLenPrefix(payload)
				if err != nil {
					return nil, err
				}
				payload = payload[adv:]
				if len(payload) < ln {
					return nil, fmt.Errorf("compress: short PAGE literal")
				}
				suffix = string(payload[:ln])
				payload = payload[ln:]
			}
			v, err := decodeValueBytes(c, []byte(prefix+suffix))
			if err != nil {
				return nil, err
			}
			out[j][ci] = v
		}
	}
	return out, nil
}
