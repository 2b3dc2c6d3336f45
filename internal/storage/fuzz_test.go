package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/storage"
)

// segFields are a segment file cut at its header fields (see
// storage.SegmentFile for the layout): design holds the column count and the
// per-column entries, tail everything after the header checksum.
type segFields struct {
	name               string
	design, state, dir []byte
	pages              uint32
	rows               uint64
	tail               []byte
}

// assemble lays the fields out as a CADBSEG2 file and seals the header CRC,
// so whatever the fields say reaches the parser's length and layout checks.
func (f segFields) assemble() []byte {
	h := binary.BigEndian.AppendUint32([]byte("CADBSEG2"), 2)
	h = binary.BigEndian.AppendUint32(h, uint32(len(f.name)))
	h = append(h, f.name...)
	h = append(h, f.design...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(f.state)))
	h = append(h, f.state...)
	h = binary.BigEndian.AppendUint32(h, f.pages)
	h = binary.BigEndian.AppendUint64(h, f.rows)
	h = append(h, f.dir...)
	h = binary.BigEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
	return append(h, f.tail...)
}

// splitSegFile cuts a well-formed segment file into its fields.
func splitSegFile(raw []byte) segFields {
	var f segFields
	at := 12
	n := int(binary.BigEndian.Uint32(raw[at:]))
	f.name = string(raw[at+4 : at+4+n])
	at += 4 + n
	designAt := at
	cols := int(binary.BigEndian.Uint16(raw[at:]))
	for at += 2; cols > 0; cols-- {
		at += 1 + int(raw[at]) + 1
	}
	f.design = raw[designAt:at]
	n = int(binary.BigEndian.Uint32(raw[at:]))
	f.state = raw[at+4 : at+4+n]
	at += 4 + n
	f.pages = binary.BigEndian.Uint32(raw[at:])
	f.rows = binary.BigEndian.Uint64(raw[at+4:])
	at += 12
	f.dir = raw[at : at+24*int(f.pages)]
	f.tail = raw[at+24*int(f.pages)+4:]
	return f
}

// seedSegmentFiles writes real segments — NONE, GDICT coded and plain-
// elected, a mixed design, an empty one — and returns their file bytes.
func seedSegmentFiles(t testing.TB) [][]byte {
	s := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "mode", Kind: storage.KindString, FixedWidth: 8},
		storage.Column{Name: "note", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "price", Kind: storage.KindFloat},
	)
	rows := make([]storage.Row, 900)
	for i := range rows {
		note := storage.StringVal(fmt.Sprintf("note-%05d", i))
		if i%9 == 0 {
			note = storage.NullValue(storage.KindString)
		}
		rows[i] = storage.Row{storage.IntVal(int64(i)), storage.StringVal([]string{"AIR", "RAIL", "SHIP"}[i%3]), note, storage.FloatVal(float64(i%50) / 4)}
	}
	var files [][]byte
	for k, c := range []struct {
		codec storage.PageCodec
		rows  []storage.Row
	}{
		{compress.Codec(compress.None), rows},
		{compress.DesignCodec(compress.GlobalDict, map[string]compress.Method{"id": compress.Row}), rows},
		{compress.DesignCodec(compress.Row, map[string]compress.Method{"note": compress.GlobalDict}), rows}, // plain election
		{compress.DesignCodec(compress.Row, map[string]compress.Method{"mode": compress.GlobalDict, "id": compress.RLE, "price": compress.Page}), rows},
		{compress.Codec(compress.GlobalDict), nil},
	} {
		seg, err := storage.BuildSegment(s, c.rows, c.codec)
		if err != nil {
			t.Fatal(err)
		}
		if k == 2 && !bytes.Equal(c.codec.SegmentState(), []byte{0, 0, 2, 0}) {
			t.Fatalf("the plain-election seed kept its dictionary: state %x", c.codec.SegmentState())
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("seed%d.cadbseg", k))
		sf, err := storage.WriteSegmentFile(path, seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			t.Fatal(err)
		}
		if sf, err = storage.OpenSegmentFile(path); err != nil {
			t.Fatalf("seed %d does not reopen: %v", k, err)
		}
		if err := sf.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, raw)
	}
	return files
}

// FuzzSegmentFileHeader assembles a segment file from fuzzed header fields
// and a payload tail, then opens it and reads every page and the full span.
// Every input must open or fail with an error — never panic, never allocate
// more than a small multiple of the file.
func FuzzSegmentFileHeader(f *testing.F) {
	for _, raw := range seedSegmentFiles(f) {
		sf := splitSegFile(raw)
		if !bytes.Equal(sf.assemble(), raw) {
			f.Fatal("a seed file does not survive split → assemble")
		}
		f.Add(sf.name, sf.design, sf.state, sf.pages, sf.dir, sf.rows, sf.tail)
	}
	path := filepath.Join(f.TempDir(), "f.cadbseg") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, name string, design, state []byte, pages uint32, dir []byte, rows uint64, tail []byte) {
		file := segFields{name: name, design: design, state: state, dir: dir, pages: pages, rows: rows, tail: tail}.assemble()
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if sf, err := storage.OpenSegmentFile(path); err == nil {
			for i := 0; i < sf.NumPages(); i++ {
				_, _ = sf.ReadPage(i) // a checksum error is an answer
			}
			if n := sf.NumPages(); n > 0 {
				_, _ = sf.ReadPageSpan(0, n)
			}
			if err := sf.Close(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(file))+1<<20; grew > limit {
			t.Fatalf("a %d-byte file allocated %d bytes (limit %d)", len(file), grew, limit)
		}
	})
}
