package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The uncompressed row format mirrors a classic fixed-slot row store:
//
//	[null bitmap][col0][col1]...[colN]
//
// Fixed-width columns occupy their full width even when the value is short
// (CHAR(n) is blank-padded, integers take 8 bytes even for small magnitudes).
// That "waste" is exactly what ROW compression (null suppression) removes, so
// encoding honestly here is essential for realistic compression fractions.

// EncodedRowSize returns the number of bytes EncodeRow would produce.
func EncodedRowSize(s *Schema, r Row) int {
	n := (len(s.Columns) + 7) / 8
	for i, c := range s.Columns {
		n += EncodedValueSize(c, r[i])
	}
	return n
}

// EncodedValueSize returns the number of bytes AppendValue would produce.
func EncodedValueSize(c Column, v Value) int {
	if c.Kind == KindString && c.FixedWidth == 0 {
		if v.Null {
			return 2
		}
		return 2 + min(len(v.Str), 0xFFFF)
	}
	return c.Width()
}

// EncodeRow appends the uncompressed encoding of r to dst and returns the
// extended slice. The row must match the schema.
func EncodeRow(s *Schema, r Row, dst []byte) []byte {
	if len(r) != len(s.Columns) {
		panic(fmt.Sprintf("storage: row arity %d != schema arity %d", len(r), len(s.Columns)))
	}
	bitmapAt := len(dst)
	dst = append(dst, make([]byte, (len(s.Columns)+7)/8)...)
	for i, c := range s.Columns {
		if r[i].Null {
			dst[bitmapAt+i/8] |= 1 << (uint(i) % 8)
		}
		dst = AppendValue(dst, c, r[i])
	}
	return dst
}

// AppendValue appends the full-width uncompressed encoding of one value:
// 8-byte integers and floats, 4-byte dates, blank-padded CHAR(n), u16 length
// plus bytes for VARCHAR. NULLs are zero-filled (the caller's bitmap marks
// them).
func AppendValue(dst []byte, c Column, v Value) []byte {
	var buf [8]byte
	switch c.Kind {
	case KindInt, KindFloat:
		var u uint64
		switch {
		case v.Null:
		case c.Kind == KindInt:
			u = uint64(v.Int)
		default:
			u = floatBits(v.Float)
		}
		binary.BigEndian.PutUint64(buf[:], u)
		return append(dst, buf[:8]...)
	case KindDate:
		var u uint32
		if !v.Null {
			u = uint32(v.Int)
		}
		binary.BigEndian.PutUint32(buf[:4], u)
		return append(dst, buf[:4]...)
	case KindString:
		str := ""
		if !v.Null {
			str = v.Str
		}
		if c.FixedWidth > 0 {
			// CHAR(n): blank padded, truncated if longer.
			if len(str) > c.FixedWidth {
				str = str[:c.FixedWidth]
			}
			dst = append(dst, str...)
			for j := len(str); j < c.FixedWidth; j++ {
				dst = append(dst, ' ')
			}
			return dst
		}
		if len(str) > 0xFFFF {
			str = str[:0xFFFF]
		}
		binary.BigEndian.PutUint16(buf[:2], uint16(len(str)))
		dst = append(dst, buf[:2]...)
		return append(dst, str...)
	}
	return dst
}

// DecodeRow decodes one row from src, returning the row and the number of
// bytes consumed.
func DecodeRow(s *Schema, src []byte) (Row, int, error) {
	bitmapLen := (len(s.Columns) + 7) / 8
	if len(src) < bitmapLen {
		return nil, 0, fmt.Errorf("storage: short row: %d bytes", len(src))
	}
	bitmap := src[:bitmapLen]
	pos := bitmapLen
	row := make(Row, len(s.Columns))
	for i, c := range s.Columns {
		null := bitmap[i/8]&(1<<(uint(i)%8)) != 0
		switch c.Kind {
		case KindInt, KindFloat:
			if len(src) < pos+8 {
				return nil, 0, fmt.Errorf("storage: short row at col %d", i)
			}
			u := binary.BigEndian.Uint64(src[pos : pos+8])
			pos += 8
			if c.Kind == KindInt {
				row[i] = Value{Kind: KindInt, Int: int64(u), Null: null}
			} else {
				row[i] = Value{Kind: KindFloat, Float: floatFromBits(u), Null: null}
			}
		case KindDate:
			if len(src) < pos+4 {
				return nil, 0, fmt.Errorf("storage: short row at col %d", i)
			}
			u := binary.BigEndian.Uint32(src[pos : pos+4])
			pos += 4
			row[i] = Value{Kind: KindDate, Int: int64(int32(u)), Null: null}
		case KindString:
			if c.FixedWidth > 0 {
				if len(src) < pos+c.FixedWidth {
					return nil, 0, fmt.Errorf("storage: short row at col %d", i)
				}
				raw := src[pos : pos+c.FixedWidth]
				pos += c.FixedWidth
				// Strip the CHAR(n) blank padding on decode.
				end := len(raw)
				for end > 0 && raw[end-1] == ' ' {
					end--
				}
				row[i] = Value{Kind: KindString, Str: string(raw[:end]), Null: null}
			} else {
				if len(src) < pos+2 {
					return nil, 0, fmt.Errorf("storage: short row at col %d", i)
				}
				n := int(binary.BigEndian.Uint16(src[pos : pos+2]))
				pos += 2
				if len(src) < pos+n {
					return nil, 0, fmt.Errorf("storage: short row at col %d", i)
				}
				row[i] = Value{Kind: KindString, Str: string(src[pos : pos+n]), Null: null}
				pos += n
			}
		}
		if null {
			row[i] = NullValue(c.Kind)
		}
	}
	return row, pos, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
