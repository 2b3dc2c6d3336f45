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

// lenPrefixSize is the per-value length descriptor used by the compressed
// formats (SQL Server keeps a column-descriptor nibble/byte per value).
func lenPrefixSize(n int) int {
	if n < 0x80 {
		return 1
	}
	return 2
}

// rowCompressedValueSize is the stored size of one value under ROW
// compression: length descriptor + minimal payload (0 payload for NULL).
func rowCompressedValueSize(c storage.Column, v storage.Value, scratch []byte) (int, []byte) {
	if v.Null {
		return 0, scratch // null bitmap covers it
	}
	scratch = valueBytes(c, v, scratch[:0])
	return lenPrefixSize(len(scratch)) + len(scratch), scratch
}

// sizeRowCompressed measures the total ROW-compressed payload of the rows.
// ROW compression is order-independent: the total is a sum of per-row sizes.
func sizeRowCompressed(s *storage.Schema, rows []storage.Row) int64 {
	bitmap := (len(s.Columns) + 7) / 8
	var total int64
	scratch := make([]byte, 0, 64)
	for _, r := range rows {
		sz := bitmap + storage.SlotSize
		for i, c := range s.Columns {
			var n int
			n, scratch = rowCompressedValueSize(c, r[i], scratch)
			sz += n
		}
		total += int64(sz)
	}
	return total
}

// sizePageCompressed measures PAGE compression: per page group (induced by
// the uncompressed layout), each column gets a common-prefix header and a
// local dictionary of repeated suffixes; values are stored as 1-byte
// dictionary codes or as length-prefixed literals. This is order-dependent:
// the same rows in a different order fragment differently across pages.
func sizePageCompressed(s *storage.Schema, rows []storage.Row) int64 {
	groups := storage.PackRows(s, rows)
	bitmap := (len(s.Columns) + 7) / 8
	var total int64
	for _, g := range groups {
		n := g.End - g.Start
		// Per-row fixed overhead: slot + null bitmap.
		total += int64(n * (bitmap + storage.SlotSize))
		for ci, c := range s.Columns {
			total += int64(pageColumnSize(c, rows[g.Start:g.End], ci))
		}
	}
	return total
}

// pageColumnSize computes the PAGE-compressed size of one column within one
// page group: the packer's incremental section sizer, charging the model's
// descriptors (one prefix-header byte, no dictionary count, no bitmaps).
func pageColumnSize(c storage.Column, rows []storage.Row, ci int) int {
	z := pageColSizer{model: true}
	scratch := make([]byte, 0, 64)
	for _, r := range rows {
		if !r[ci].Null {
			scratch = valueBytes(c, r[ci], scratch[:0])
			z.add(scratch)
		}
	}
	return z.size()
}

// commonPrefixLen is the length of the longest common prefix of a and b.
func commonPrefixLen[T string | []byte](a, b T) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// sizeGlobalDict measures per-column global dictionary encoding (DB2 style):
// one dictionary per column for the whole index; each value stored as a
// fixed-width code sized by the column's distinct count. The engine keeps a
// column plain when dictionary encoding would not help. Order-independent.
func sizeGlobalDict(s *storage.Schema, rows []storage.Row) int64 {
	// Mirrors the column-major codec layout: a slot array keeps leaf rows
	// addressable, and each column section carries its own null bitmap at one
	// bit per row — not the row-major ceil(cols/8) bytes per row of the
	// row-oriented codecs — plus a 2-byte mode/width header (charged once per
	// column; the per-page repetition and bitmap rounding are sub-percent).
	if len(rows) == 0 {
		return 0
	}
	var total int64
	total += int64(len(rows) * storage.SlotSize)
	total += int64(len(s.Columns) * (2 + (len(rows)+7)/8))
	scratch := make([]byte, 0, 64)
	for ci, c := range s.Columns {
		var sz int64
		sz, scratch = gdictColumnSize(c, rows, ci, scratch)
		total += sz
	}
	return total
}

// gdictColumnSize is the global-dictionary model for one column: the
// dictionary plus one fixed-width code per non-null value, or the plain
// length-prefixed values when the dictionary would not pay for itself.
func gdictColumnSize(c storage.Column, rows []storage.Row, ci int, scratch []byte) (int64, []byte) {
	distinct := make(map[string]struct{}, 1024)
	var plain, dictBytes int64
	nonNull := 0
	for _, r := range rows {
		if r[ci].Null {
			continue
		}
		nonNull++
		scratch = valueBytes(c, r[ci], scratch[:0])
		cost := int64(lenPrefixSize(len(scratch)) + len(scratch))
		plain += cost
		if _, seen := distinct[string(scratch)]; !seen {
			distinct[string(scratch)] = struct{}{}
			dictBytes += cost
		}
	}
	return min(dictBytes+int64(nonNull*codeWidth(len(distinct))), plain), scratch
}

// codeWidth returns the bytes needed for a dictionary code addressing n
// entries (at least 1 byte).
func codeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	case n <= 1<<24:
		return 3
	default:
		return 4
	}
}

// sizeRLE measures per-page run-length encoding: within each page group, each
// column stores one (value, count) pair per run of consecutive equal values.
// Strongly order-dependent; sorted leading columns collapse dramatically.
func sizeRLE(s *storage.Schema, rows []storage.Row) int64 {
	groups := storage.PackRows(s, rows)
	var total int64
	scratch := make([]byte, 0, 64)
	for _, g := range groups {
		// RLE stores runs, not slotted rows: no per-row overhead beyond the
		// per-run headers.
		for ci, c := range s.Columns {
			total += rleColumnSize(c, rows[g.Start:g.End], ci, &scratch)
		}
	}
	return total
}
