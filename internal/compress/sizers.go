package compress

import (
	"encoding/binary"
	"math"

	"cadb/internal/storage"
)

// valueBytes returns the minimal ("row compressed") byte encoding of a value:
// integers and dates drop leading zero bytes (after zigzag mapping), floats
// drop trailing zero mantissa bytes, CHAR(n) drops the blank padding, and
// VARCHAR stores its bytes as-is. NULL values take zero bytes (they are
// represented solely by the null bitmap).
func valueBytes(c storage.Column, v storage.Value, dst []byte) []byte {
	if v.Null {
		return dst
	}
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		u := zigzag(v.Int)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], u)
		i := 0
		for i < 7 && buf[i] == 0 {
			i++
		}
		if u == 0 {
			return dst // zero takes no payload bytes
		}
		return append(dst, buf[i:]...)
	case storage.KindFloat:
		bits := math.Float64bits(v.Float)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		end := 8
		for end > 0 && buf[end-1] == 0 {
			end--
		}
		return append(dst, buf[:end]...)
	case storage.KindString:
		s := v.Str
		if c.FixedWidth > 0 {
			if len(s) > c.FixedWidth {
				s = s[:c.FixedWidth]
			}
			// Trailing blanks are suppressed by ROW compression.
			end := len(s)
			for end > 0 && s[end-1] == ' ' {
				end--
			}
			s = s[:end]
		}
		return append(dst, s...)
	}
	return dst
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// commonPrefixLen is the length of the longest common prefix of a and b.
func commonPrefixLen[T string | []byte](a, b T) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// The per-column section models below size one column of one page group
// (the rows of one page in the uncompressed layout), except GDICT, whose
// dictionary spans the whole row set. Each charges what that method's
// section body stores; the section's null bitmap is DesignSizes' to add.

// noneColumnSize is the NONE model: every row's full-width value, NULLs
// zero-filled.
func noneColumnSize(c storage.Column, rows []storage.Row, ci int) int64 {
	var size int64
	for _, r := range rows {
		size += int64(storage.EncodedValueSize(c, r[ci]))
	}
	return size
}

// rowColumnSize is the ROW model: a length descriptor plus the minimal
// encoding of every non-null value.
func rowColumnSize(c storage.Column, rows []storage.Row, ci int, scratch *[]byte) int64 {
	var size int64
	for _, r := range rows {
		if !r[ci].Null {
			*scratch = valueBytes(c, r[ci], (*scratch)[:0])
			size += int64(lenPrefixLen(len(*scratch)) + len(*scratch))
		}
	}
	return size
}

// pageColumnSize is the PAGE model: the packer's incremental section sizer,
// charging the model's descriptors (one prefix-header byte, no dictionary
// count, no dictionary bitmap).
func pageColumnSize(c storage.Column, rows []storage.Row, ci int, scratch *[]byte) int64 {
	z := pageColSizer{model: true}
	for _, r := range rows {
		if !r[ci].Null {
			*scratch = valueBytes(c, r[ci], (*scratch)[:0])
			z.add(*scratch)
		}
	}
	return int64(z.size())
}

// rleColumnSize is the RLE model: per run, a 2-byte header plus (for value
// runs) the length-prefixed value bytes. A NULL run is charged as a run of
// a 5-byte sentinel value.
func rleColumnSize(c storage.Column, rows []storage.Row, ci int, scratch *[]byte) int64 {
	var prev string
	started := false
	var size int64
	for _, r := range rows {
		var cur string
		if r[ci].Null {
			cur = "\x00null"
		} else {
			*scratch = valueBytes(c, r[ci], (*scratch)[:0])
			cur = string(*scratch)
		}
		if !started || cur != prev {
			size += int64(lenPrefixLen(len(cur)) + len(cur) + 2)
			prev = cur
			started = true
		}
	}
	return size
}

// gdictColumnSize is the global-dictionary model over the whole row set: the
// dictionary plus one fixed-width code per non-null value, or the plain
// length-prefixed values when the dictionary would not pay for itself — the
// election the codec's pre-pass makes.
func gdictColumnSize(c storage.Column, rows []storage.Row, ci int, scratch *[]byte) int64 {
	distinct := make(map[string]struct{}, 1024)
	var plain, dictBytes int64
	nonNull := 0
	for _, r := range rows {
		if r[ci].Null {
			continue
		}
		nonNull++
		*scratch = valueBytes(c, r[ci], (*scratch)[:0])
		cost := int64(lenPrefixLen(len(*scratch)) + len(*scratch))
		plain += cost
		if _, seen := distinct[string(*scratch)]; !seen {
			distinct[string(*scratch)] = struct{}{}
			dictBytes += cost
		}
	}
	return min(dictBytes+int64(nonNull*gdictCodeWidth(len(distinct)-1)), plain)
}
