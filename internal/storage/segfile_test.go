package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
)

// plainCodec is the minimal test codec: uncompressed row-major pages, no
// segment state (enough for round-trips without importing internal/compress,
// which would cycle).
type plainCodec struct{}

func (plainCodec) Name() string      { return "TEST" }
func (plainCodec) StateBytes() int64 { return 0 }

func (plainCodec) EncodeRows(s *Schema, rows []Row) ([]EncodedPage, error) {
	groups := PackRows(s, rows)
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

// TestSpillDetectsCorruption flips one payload byte in a spill file and
// checks the damage surfaces through the pool as an error on every fetch of
// that page, is never admitted as a frame (by a fetch or a prefetch), leaks
// no pin, and leaves the neighbouring page readable.
func TestSpillDetectsCorruption(t *testing.T) {
	_, rows, seg := testSegment(t, 500)
	if seg.NumPages() < 2 {
		t.Fatalf("test segment has %d pages, want at least 2", seg.NumPages())
	}
	pool := bufferpool.New(1 << 20)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	if err := seg.Spill(path, pool); err != nil {
		t.Fatal(err)
	}
	defer seg.CloseBacking()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != seg.DiskBytes() {
		t.Fatalf("spill file holds %d bytes, want DiskBytes %d", fi.Size(), seg.DiskBytes())
	}
	// Corrupt the last payload byte: the last page's.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bad := seg.NumPages() - 1
	for try := 1; try <= 2; try++ {
		if _, _, err := seg.FetchPage(bad, nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("fetch %d of the corrupted page: err %v, want a checksum mismatch", try, err)
		}
	}
	if n, _, err := seg.PrefetchSpan(bad-1, bad+1); n != 0 || err == nil {
		t.Fatalf("prefetch over the corrupted page admitted %d pages (err %v)", n, err)
	}
	var io IOStats
	if _, _, err := seg.FetchPage(bad, &io); err == nil {
		t.Fatal("the corrupted page was admitted by the prefetch")
	}
	payload, release, err := seg.FetchPage(bad-1, &io)
	if err != nil {
		t.Fatalf("intact neighbour page: %v", err)
	}
	got := decodeAll(t, seg, payload, seg.PageRows(bad-1))
	release()
	first := seg.PageStartRow(bad - 1)
	for i, r := range got {
		if r[0].Int != rows[first+int64(i)][0].Int {
			t.Fatalf("neighbour page row %d: got id %d", i, r[0].Int)
		}
	}
	if io.PoolMisses != 1 || io.BytesRead != int64(len(payload)) {
		t.Fatalf("neighbour read: %d misses, %d bytes; want 1 miss of %d bytes", io.PoolMisses, io.BytesRead, len(payload))
	}
	if st := pool.Stats(); st.PinnedFrames != 0 {
		t.Fatalf("%d frames left pinned", st.PinnedFrames)
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
