package storage

// PageSize is the fixed size of a database page in bytes (SQL Server uses
// 8 KB pages; so do we).
const PageSize = 8192

// PageHeaderSize approximates the per-page header + slot array overhead of a
// slotted page. Rows are packed into PageSize-PageHeaderSize usable bytes.
const PageHeaderSize = 96

// SlotSize is the per-row slot entry in the slot array.
const SlotSize = 2

// UsablePageBytes is the space available for row payloads on a page.
const UsablePageBytes = PageSize - PageHeaderSize

// PagesForBytes returns the number of pages needed to hold n payload bytes,
// at least 1 for non-empty payloads.
func PagesForBytes(n int64) int64 {
	if n <= 0 {
		return 0
	}
	p := (n + UsablePageBytes - 1) / UsablePageBytes
	if p < 1 {
		p = 1
	}
	return p
}

// PageGroup is a run of rows that share a physical page in the uncompressed
// layout. Page-local (order-dependent) compression operates on these groups.
type PageGroup struct {
	Start, End int // half-open row range [Start, End)
	Bytes      int // payload bytes of the group, uncompressed
}

// PackRows partitions rows (already in index order) into page groups using
// the uncompressed encoding size of each row. The groups' Bytes sum to
// PackedBytes.
//
// Packing follows the first-fit rule of a bulk-loaded B+-tree leaf level with
// a 100% fill factor: rows are appended until the next row would overflow the
// page. A row wider than UsablePageBytes gets a group of its own spanning an
// overflow-page run, charged at whole pages (ceil of its true encoded size) —
// clamping it to a single page would under-count the payload bytes that
// heap-size and compression-fraction estimates are built on.
func PackRows(s *Schema, rows []Row) []PageGroup {
	var groups []PageGroup
	start := 0
	used := 0
	flush := func(end int) {
		if end > start {
			groups = append(groups, PageGroup{Start: start, End: end, Bytes: used})
			start = end
			used = 0
		}
	}
	fixed, varying := packedLayout(s)
	for i, r := range rows {
		sz := packedRowSize(s, fixed, varying, r)
		if sz > UsablePageBytes {
			flush(i)
			used = chargedRowBytes(sz)
			flush(i + 1)
			continue
		}
		if used+sz > UsablePageBytes && used > 0 {
			flush(i)
		}
		used += sz
	}
	flush(len(rows))
	return groups
}

// chargedRowBytes is what a row of sz bytes (slot included) costs in the
// packed layout: its size, or whole overflow pages when it outgrows a page.
func chargedRowBytes(sz int) int {
	if sz > UsablePageBytes {
		return int(PagesForBytes(int64(sz))) * UsablePageBytes
	}
	return sz
}

// PackedBytes is the total uncompressed payload of rows in the packed
// layout: every row's encoded size plus its slot, an oversized row charged
// whole overflow pages. Only variable-width values differ from row to row,
// so a schema without them costs rows × one row.
func PackedBytes(s *Schema, rows []Row) int64 {
	fixed, varying := packedLayout(s)
	if len(varying) == 0 {
		return int64(len(rows)) * int64(chargedRowBytes(fixed))
	}
	var total int64
	for _, r := range rows {
		total += int64(chargedRowBytes(packedRowSize(s, fixed, varying, r)))
	}
	return total
}

// packedLayout splits a packed row's size (EncodedRowSize plus its slot)
// into what every row of the schema pays — null bitmap, slot and fixed-width
// values — and the columns whose values vary in width.
func packedLayout(s *Schema) (fixed int, varying []int) {
	fixed = (len(s.Columns)+7)/8 + SlotSize
	for i, c := range s.Columns {
		if c.Width() == 0 {
			varying = append(varying, i)
		} else {
			fixed += c.Width()
		}
	}
	return fixed, varying
}

// packedRowSize is the row's encoded size plus its slot, given its schema's
// packedLayout.
func packedRowSize(s *Schema, fixed int, varying []int, r Row) int {
	for _, i := range varying {
		fixed += EncodedValueSize(s.Columns[i], r[i])
	}
	return fixed
}
