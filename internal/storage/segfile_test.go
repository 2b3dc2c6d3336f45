package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
)

// plainCodec is the minimal test codec: uncompressed row-major pages, no
// segment state (enough for round-trips without importing internal/compress,
// which would cycle).
type plainCodec struct{}

func (plainCodec) Name() string                           { return "TEST" }
func (plainCodec) ColumnMethodIDs(s *Schema) []byte       { return make([]byte, len(s.Columns)) }
func (plainCodec) SegmentState() []byte                   { return nil }
func (plainCodec) LoadSegmentState(*Schema, []byte) error { return nil }

func (plainCodec) EncodeRows(s *Schema, rows []Row) ([]EncodedPage, error) {
	groups, _ := PackRows(s, rows)
	out := make([]EncodedPage, 0, len(groups))
	for _, g := range groups {
		var payload []byte
		for _, r := range rows[g.Start:g.End] {
			payload = EncodeRow(s, r, payload)
		}
		out = append(out, EncodedPage{
			Payload:        payload,
			Rows:           g.End - g.Start,
			AccountedBytes: len(payload) + SlotSize*(g.End-g.Start),
		})
	}
	return out, nil
}

func (plainCodec) NewDecoder(s *Schema, spec *DecodeSpec) PageDecoder {
	return plainDecoder{s: s, spec: spec}
}

// plainDecoder full-decodes a page and answers with the fallback.
type plainDecoder struct {
	s    *Schema
	spec *DecodeSpec
}

func (d plainDecoder) Decode(payload []byte, nrows int, slots []int) (*DecodedPage, error) {
	full := make([]Row, 0, nrows)
	for at := 0; len(full) < nrows; {
		r, n, err := DecodeRow(d.s, payload[at:])
		if err != nil {
			return nil, err
		}
		full = append(full, r)
		at += n
	}
	return FallbackDecodeColumns(d.s, full, d.spec, slots), nil
}

// decodeAll is the full decode of one page payload: every ordinal, no
// predicates, no slot filter.
func decodeAll(t testing.TB, seg *Segment, payload []byte, nrows int) []Row {
	t.Helper()
	dp, err := seg.Codec.NewDecoder(seg.Schema, &DecodeSpec{Needed: seg.Schema.AllOrdinals()}).Decode(payload, nrows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dp.Rows
}

// scanAll full-decodes every page of seg in order, fetching through the pool
// when the segment is spilled.
func scanAll(t testing.TB, seg *Segment, io *IOStats) []Row {
	t.Helper()
	var out []Row
	for i := 0; i < seg.NumPages(); i++ {
		payload, release, err := seg.FetchPage(i, io)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, decodeAll(t, seg, payload, seg.PageRows(i))...)
		release()
	}
	return out
}

func testSegment(t *testing.T, nrows int) (*Schema, []Row, *Segment) {
	t.Helper()
	s := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString, FixedWidth: 40},
		Column{Name: "val", Kind: KindFloat},
	)
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i)), StringVal("row-padding-padding-padding"), FloatVal(float64(i) / 3)}
	}
	seg, err := BuildSegment(s, rows, plainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return s, rows, seg
}

// TestSegmentFileRoundTrip spills a segment, re-opens the file cold, and
// checks header metadata and every page payload round-trip exactly.
func TestSegmentFileRoundTrip(t *testing.T) {
	_, rows, seg := testSegment(t, 2000)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	sf, err := WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	re, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != seg.NumPages() || re.Rows() != seg.Rows() || re.CodecName() != "TEST" {
		t.Fatalf("header mismatch: %d pages %d rows codec %q", re.NumPages(), re.Rows(), re.CodecName())
	}
	if re.PayloadBytes() != seg.DiskBytes() {
		t.Fatalf("payload bytes %d, segment disk bytes %d", re.PayloadBytes(), seg.DiskBytes())
	}
	var decoded int
	for i := 0; i < re.NumPages(); i++ {
		payload, err := re.ReadPage(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range decodeAll(t, seg, payload, re.PageRows(i)) {
			if r[0].Int != rows[decoded][0].Int {
				t.Fatalf("row %d: got id %d", decoded, r[0].Int)
			}
			decoded++
		}
	}
	if decoded != len(rows) {
		t.Fatalf("decoded %d of %d rows", decoded, len(rows))
	}
}

// TestSegmentFileDetectsCorruption flips one payload byte on disk and checks
// the page read fails its checksum (and a header flip fails open).
func TestSegmentFileDetectsCorruption(t *testing.T) {
	_, _, seg := testSegment(t, 500)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	sf, err := WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last payload byte.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err) // header is intact
	}
	if _, err := re.ReadPage(re.NumPages() - 1); err == nil {
		t.Fatal("corrupted page passed its checksum")
	}
	re.Close()

	// Corrupt the header (codec name byte).
	corrupt = append([]byte(nil), raw...)
	corrupt[17] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentFile(path); err == nil {
		t.Fatal("corrupted header passed its checksum")
	}
}

// TestSpillAndFetch spills a segment through a pool and checks decode
// results are unchanged, payloads are released from memory, pool stats are
// counted per fetch, and CloseBacking turns later fetches into errors.
func TestSpillAndFetch(t *testing.T) {
	_, rows, seg := testSegment(t, 1500)
	want := scanAll(t, seg, nil)
	pool := bufferpool.New(1 << 20)
	if err := seg.Spill(filepath.Join(t.TempDir(), "seg.cadb"), pool); err != nil {
		t.Fatal(err)
	}
	if !seg.Backed() {
		t.Fatal("segment not backed after spill")
	}
	for i := 0; i < seg.NumPages(); i++ {
		if seg.Page(i).Payload != nil {
			t.Fatalf("page %d still holds its payload after spill", i)
		}
	}
	var io IOStats
	got := scanAll(t, seg, &io)
	if len(got) != len(want) || len(got) != len(rows) {
		t.Fatalf("scan through pool returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].Int != want[i][0].Int {
			t.Fatalf("row %d differs after spill", i)
		}
	}
	if io.PoolMisses != int64(seg.NumPages()) || io.PoolHits != 0 {
		t.Fatalf("cold scan: %d misses %d hits, want %d/0", io.PoolMisses, io.PoolHits, seg.NumPages())
	}
	if io.BytesRead != seg.DiskBytes() {
		t.Fatalf("cold scan read %d bytes, want %d", io.BytesRead, seg.DiskBytes())
	}
	// Second scan: everything fits, so all hits.
	io = IOStats{}
	for i := 0; i < seg.NumPages(); i++ {
		_, release, err := seg.FetchPage(i, &io)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if io.PoolHits != int64(seg.NumPages()) || io.PoolMisses != 0 {
		t.Fatalf("warm scan: %d hits %d misses", io.PoolHits, io.PoolMisses)
	}

	seg.CloseBacking()
	if _, _, err := seg.FetchPage(0, nil); err == nil {
		t.Fatal("fetch from a closed backing should fail (stale-page guard)")
	}
	if pool.Bytes() != 0 {
		t.Fatalf("pool still holds %d bytes after CloseBacking", pool.Bytes())
	}
}

// TestOpenSegmentFileHostileHeader hands OpenSegmentFile headers that lie
// about their lengths: each must cost an error, never a panic and never an
// allocation sized by the lie.
func TestOpenSegmentFileHostileHeader(t *testing.T) {
	_, _, seg := testSegment(t, 500)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	sf, err := WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := int(sf.entries[0].offset)
	sf.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Field offsets, back from the end of the header: CRC, directory, row
	// count, page count, then the (empty) state block's length.
	pageCountAt := headerLen - 4 - 24*seg.NumPages() - 8 - 4
	stateLenAt := pageCountAt - 4
	sealed := func(prefix []byte) []byte { // a header cut short but CRC-valid
		return binary.BigEndian.AppendUint32(prefix, crc32.ChecksumIEEE(prefix))
	}
	hugePages := append([]byte(nil), raw[:pageCountAt+12]...)
	binary.BigEndian.PutUint32(hugePages[pageCountAt:], 0xFFFFFFFF)
	longState := append([]byte(nil), raw[:stateLenAt+4]...)
	binary.BigEndian.PutUint32(longState[stateLenAt:], 1<<30-1)
	manyCols := append([]byte(nil), raw[:16+len("TEST")+2]...)
	binary.BigEndian.PutUint16(manyCols[16+len("TEST"):], 0xFFFF)
	// A whole file whose directory is edited and whose header CRC is then
	// recomputed: only the layout check stands between it and the reads.
	dirAt := headerLen - 4 - 24*seg.NumPages()
	resealed := func(edit func(dir []byte)) []byte {
		file := append([]byte(nil), raw...)
		edit(file[dirAt : headerLen-4])
		binary.BigEndian.PutUint32(file[headerLen-4:], crc32.ChecksumIEEE(file[:headerLen-4]))
		return file
	}
	if seg.NumPages() < 2 {
		t.Fatalf("test segment has %d pages, the directory cases need 2", seg.NumPages())
	}

	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"2^32-1 pages", sealed(hugePages)},
		{"state block longer than the file", append(sealed(longState), raw[stateLenAt+4:]...)},
		{"65535 columns", sealed(manyCols)},
		{"version-1 magic", append([]byte("CADBSEG1"), raw[8:]...)},
		{"page 1 starts before page 0", resealed(func(dir []byte) {
			binary.BigEndian.PutUint64(dir[24:], binary.BigEndian.Uint64(dir[0:])-1)
		})},
		{"page 0 is 4 GiB long", resealed(func(dir []byte) {
			binary.BigEndian.PutUint32(dir[8:], 0xFFFFFFF0)
		})},
		{"payloads stop short of the file's end", append(append([]byte(nil), raw...), 0)},
		{"truncated", raw[:headerLen/2]},
	} {
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := OpenSegmentFile(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			got.Close()
			t.Fatalf("%s: header accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting the header allocated %d bytes", tc.name, grew)
		}
		if tc.name == "version-1 magic" && !strings.Contains(err.Error(), "unsupported segment format") {
			t.Fatalf("%s: error does not name the format: %v", tc.name, err)
		}
	}
}
