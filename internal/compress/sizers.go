package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"

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
		u := zigzag(v.Int) // zero takes no payload bytes
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], u)
		return append(dst, buf[bits.LeadingZeros64(u)/8:]...)
	case storage.KindFloat:
		u := math.Float64bits(v.Float)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], u)
		return append(dst, buf[:8-bits.TrailingZeros64(u)/8]...)
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
// They share one modelScratch across the page groups and columns of a
// measure, so sizing allocates only while its buffers and tables grow: no
// string and no map entry per value.

// modelScratch is the working memory of one measure.
type modelScratch struct {
	val, prev []byte       // the current and (RLE) previous value's encoding
	page      pageColSizer // PAGE: the packer's sizer, charging the model's descriptors
	dict      internTable  // GDICT: the row set's distinct values
}

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
func rowColumnSize(c storage.Column, rows []storage.Row, ci int, sc *modelScratch) int64 {
	var size int64
	for _, r := range rows {
		if !r[ci].Null {
			sc.val = valueBytes(c, r[ci], sc.val[:0])
			size += int64(lenPrefixLen(len(sc.val)) + len(sc.val))
		}
	}
	return size
}

// pageColumnSize is the PAGE model: the packer's incremental section sizer,
// charging the model's descriptors (one prefix-header byte, no dictionary
// count, no dictionary bitmap). It hashes each non-null value once.
func pageColumnSize(c storage.Column, rows []storage.Row, ci int, sc *modelScratch) int64 {
	z := &sc.page
	z.reset()
	for _, r := range rows {
		if !r[ci].Null {
			sc.val = valueBytes(c, r[ci], sc.val[:0])
			z.add(sc.val)
		}
	}
	return int64(z.size())
}

// rleNullRunCost is what the RLE model charges a NULL run: the cost of a run
// of a 5-byte value (length prefix, 5 bytes, 2-byte header). The codec's NULL
// run is its 2-byte header alone, but every RLE size, golden report and
// recommendation is calibrated to this charge.
const rleNullRunCost = 1 + 5 + 2

// rleColumnSize is the RLE model: per run, a 2-byte header plus (for value
// runs) the length-prefixed value bytes. A NULL run is a flag, charged
// rleNullRunCost; a value run compares each value's bytes with the previous
// value's. Like the codec, it never lets a NULL and a value share a run.
func rleColumnSize(c storage.Column, rows []storage.Row, ci int, sc *modelScratch) int64 {
	started, prevNull := false, false
	var size int64
	for _, r := range rows {
		null := r[ci].Null
		if null {
			if started && prevNull {
				continue
			}
			size += rleNullRunCost
		} else {
			sc.val = valueBytes(c, r[ci], sc.val[:0])
			if started && !prevNull && bytes.Equal(sc.val, sc.prev) {
				continue
			}
			size += int64(lenPrefixLen(len(sc.val)) + len(sc.val) + 2)
			sc.val, sc.prev = sc.prev, sc.val
		}
		started, prevNull = true, null
	}
	return size
}

// gdictColumnSize is the global-dictionary model over the whole row set: the
// dictionary plus one fixed-width code per non-null value, or the plain
// length-prefixed values when the dictionary would not pay for itself — the
// election the codec's pre-pass makes.
func gdictColumnSize(c storage.Column, rows []storage.Row, ci int, sc *modelScratch) int64 {
	sc.dict.reset()
	var plain, dictBytes int64
	nonNull := 0
	for _, r := range rows {
		if r[ci].Null {
			continue
		}
		nonNull++
		sc.val = valueBytes(c, r[ci], sc.val[:0])
		cost := int64(lenPrefixLen(len(sc.val)) + len(sc.val))
		plain += cost
		if _, fresh := sc.dict.intern(sc.val); fresh {
			dictBytes += cost
		}
	}
	return min(dictBytes+int64(nonNull*gdictCodeWidth(sc.dict.len()-1)), plain)
}
