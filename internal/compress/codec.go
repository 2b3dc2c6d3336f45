package compress

import (
	"encoding/binary"
	"fmt"

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

// appendLenPrefix appends a length descriptor: one byte below 0x80, two
// bytes (0x80|hi, lo) up to 0x7EFF. Longer values — possible only inside
// overflow runs — escape to 0xFF plus a 4-byte length.
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

// lenPrefixLen is the byte length appendLenPrefix writes for n: the one
// length rule the packer's sizers and the size model both charge.
func lenPrefixLen(n int) int {
	switch {
	case n < 0x80:
		return 1
	case n < 0x7F00:
		return 2
	}
	return 5
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

// ---------------------------------------------------------------------------
// PAGE column sections: common prefix + page-local dictionary

// pageColScratch is the working memory of a PAGE column encode, reused from
// section to section: the page-local dictionary, indexed by the ids the
// page's sizer gave its distinct values.
type pageColScratch struct {
	count []int32 // id -> rows on the page holding the value
	code  []int32 // id -> dictionary code, -1 for values stored as literals
}

// appendColumn appends one PAGE column section, the layout parsePageColumn
// reads:
//
//	[null bitmap][prefix][u16 dictCount][dict entries][dict bitmap][values]
//
// Values are stored in row order as dictionary codes (for suffixes occurring
// at least twice, per the size model's policy) or length-prefixed literal
// suffixes. The values' encodings come from the page's value arena, and their
// ids from the sizer that sized the page (which may hold one more value: the
// row that did not fit, always last).
func (ps *pageColScratch) appendColumn(payload []byte, rows []storage.Row, ci int, pv *pageValues, z *pageColSizer) ([]byte, error) {
	n := len(rows)
	bitmapLen := (n + 7) / 8
	// Null bitmap (bit j set = row j is NULL) and the common prefix across
	// the non-null values.
	nullAt := len(payload)
	payload = append(payload, make([]byte, bitmapLen)...)
	var prefix []byte
	nonNull := 0
	for j, r := range rows {
		if r[ci].Null {
			payload[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		if v := pv.at(j); nonNull == 0 {
			prefix = v
		} else {
			prefix = prefix[:commonPrefixLen(prefix, v)]
		}
		nonNull++
	}
	payload = appendLenPrefix(payload, len(prefix))
	payload = append(payload, prefix...)
	// Local dictionary: suffixes occurring at least twice, codes assigned in
	// first-occurrence order, the order the sizer numbered them in. Every
	// value on the page shares the prefix, so equal values are equal
	// suffixes and each id is one suffix.
	ids := z.ids[:nonNull]
	ps.count = append(ps.count[:0], make([]int32, z.values.len())...)
	for _, id := range ids {
		ps.count[id]++
	}
	dictAtCount := len(payload)
	payload = append(payload, 0, 0)
	dictLen := 0
	ps.code = ps.code[:0]
	for id, cnt := range ps.count {
		if cnt < 2 {
			ps.code = append(ps.code, -1)
			continue
		}
		ps.code = append(ps.code, int32(dictLen))
		dictLen++
		sfx := z.values.key(int32(id))[len(prefix):]
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
		code := ps.code[ids[0]]
		ids = ids[1:]
		if code >= 0 {
			payload[dictAt+j/8] |= 1 << (uint(j) % 8)
			if dictLen > 255 {
				payload = append(payload, byte(code>>8))
			}
			payload = append(payload, byte(code))
		} else {
			sfx := pv.at(j)[len(prefix):]
			payload = appendLenPrefix(payload, len(sfx))
			payload = append(payload, sfx...)
		}
	}
	return payload, nil
}
