package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"cadb/internal/storage"
)

// This file is the codec's entry point and the byte-level helpers every
// section format shares. There is one materializing codec — the column-major
// design codec of colcodec.go — and a uniform method is simply a design
// vector with one value, so Codec(m) is DesignCodec(m, nil).
//
// Value round-trips are exact for ints, dates, floats (bit-level) and
// variable-width strings. CHAR(n) columns are normalized the same way the
// uncompressed row format is: values are truncated to n bytes and trailing
// blanks are stripped on decode.

// Codec returns a fresh materializing page codec storing every column under
// the method, or nil for an unknown method.
func Codec(m Method) storage.PageCodec { return DesignCodec(m, nil) }

// HasCodec reports whether the method can be materialized into segments.
// Every recommendable method does.
func HasCodec(m Method) bool { return m < numMethods }

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

// decodeValue is the inverse of valueBytes: reconstruct a value from its
// minimal encoding. The encoding may be bytes (a page section) or a string (a
// global-dictionary entry, which a string value then shares instead of
// copying).
func decodeValue[B []byte | string](c storage.Column, b B) (storage.Value, error) {
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte integer", len(b))
		}
		var u uint64
		for i := 0; i < len(b); i++ {
			u = u<<8 | uint64(b[i])
		}
		v := int64(u>>1) ^ -int64(u&1) // un-zigzag
		return storage.Value{Kind: c.Kind, Int: v}, nil
	case storage.KindFloat:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte float", len(b))
		}
		var u uint64 // trailing zero bytes are dropped by the encoding
		for i := 0; i < len(b); i++ {
			u |= uint64(b[i]) << (56 - 8*i)
		}
		return storage.FloatVal(math.Float64frombits(u)), nil
	case storage.KindString:
		return storage.StringVal(string(b)), nil
	}
	return storage.Value{}, fmt.Errorf("compress: unknown kind %v", c.Kind)
}

// ---------------------------------------------------------------------------
// PAGE column sections: common prefix + page-local dictionary

// pageColScratch is the working memory of a PAGE column encode, reused from
// section to section: the page-local dictionary keyed by suffix.
type pageColScratch struct {
	ids   []int32          // row -> slot in count/first/code (unset for NULLs)
	index map[string]int32 // suffix -> slot
	count []int32
	first []int32 // first row holding the suffix
	code  []int32 // dictionary code, -1 for suffixes stored as literals
}

// appendColumn appends one PAGE column section, the layout parsePageColumn
// reads:
//
//	[null bitmap][prefix][u16 dictCount][dict entries][dict bitmap][values]
//
// Values are stored in row order as dictionary codes (for suffixes occurring
// at least twice, per the size model's policy) or length-prefixed literal
// suffixes. The values' encodings come from the page's value arena.
func (ps *pageColScratch) appendColumn(payload []byte, rows []storage.Row, ci int, pv *pageValues) ([]byte, error) {
	n := len(rows)
	bitmapLen := (n + 7) / 8
	// Null bitmap (bit j set = row j is NULL) and the common prefix across
	// the non-null values.
	nullAt := len(payload)
	payload = append(payload, make([]byte, bitmapLen)...)
	ps.ids = ps.ids[:0]
	var prefix []byte
	seen := false
	for j, r := range rows {
		ps.ids = append(ps.ids, -1)
		if r[ci].Null {
			payload[nullAt+j/8] |= 1 << (uint(j) % 8)
		} else if v := pv.at(j); !seen {
			prefix, seen = v, true
		} else {
			prefix = prefix[:commonPrefixLen(prefix, v)]
		}
	}
	payload = appendLenPrefix(payload, len(prefix))
	payload = append(payload, prefix...)
	// Local dictionary: suffixes occurring at least twice, codes assigned
	// in first-occurrence order.
	if ps.index == nil {
		ps.index = make(map[string]int32)
	}
	clear(ps.index)
	ps.count, ps.first, ps.code = ps.count[:0], ps.first[:0], ps.code[:0]
	suffix := func(j int) []byte { return pv.at(j)[len(prefix):] }
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
