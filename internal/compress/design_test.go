package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cadb/internal/storage"
)

// mixedDesigns are the per-column design vectors the design tests sweep:
// every method appears somewhere, GDICT and RLE both as default and as
// override, columns of every kind covered.
var mixedDesigns = []struct {
	name string
	def  Method
	over map[string]Method
}{
	{"gdict-rle-mix", Row, map[string]Method{"mode": GlobalDict, "comment": GlobalDict, "ship": RLE, "price": None, "qty": Page}},
	{"rle-default", RLE, map[string]Method{"id": GlobalDict, "comment": Row}},
	{"gdict-default", GlobalDict, map[string]Method{"id": Row, "price": Page}},
	{"pure-rle", RLE, nil},
}

func TestMixedDesignRoundTrip(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(700, 0.25, 11)
	for _, d := range mixedDesigns {
		seg, err := storage.BuildSegment(s, rows, DesignCodec(d.def, d.over))
		if err != nil {
			t.Fatalf("%s: BuildSegment: %v", d.name, err)
		}
		got := scanAll(t, seg)
		if len(got) != len(rows) {
			t.Fatalf("%s: got %d rows, want %d", d.name, len(got), len(rows))
		}
		for i := range rows {
			if !bytes.Equal(canonical(s, got[i]), canonical(s, rows[i])) {
				t.Fatalf("%s: row %d mismatch\n got %v\nwant %v", d.name, i, got[i], rows[i])
			}
		}
	}
}

func TestMixedDesignSelectiveDecode(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(800, 0.2, 23)
	rng := rand.New(rand.NewSource(29))
	for _, d := range mixedDesigns {
		seg, err := storage.BuildSegment(s, rows, DesignCodec(d.def, d.over))
		if err != nil {
			t.Fatalf("%s: BuildSegment: %v", d.name, err)
		}
		for trial := 0; trial < 40; trial++ {
			spec, slots := randomSpec(rng, s, rows)
			assertSelectiveDecode(t, seg, spec, slots, fmt.Sprintf("%s trial %d", d.name, trial))
		}
	}
}

// TestGDictPlainElection: an all-distinct column is GDICT's worst case — the
// build must elect plain storage (dropping the dictionary from the segment
// state) and still round-trip.
func TestGDictPlainElection(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Kind: storage.KindString, Nullable: true},
	)
	rows := make([]storage.Row, 600)
	for i := range rows {
		rows[i] = storage.Row{storage.StringVal(fmt.Sprintf("unique-value-%06d-%06d", i, i*i))}
	}
	seg, err := storage.BuildSegment(s, rows, Codec(GlobalDict))
	if err != nil {
		t.Fatal(err)
	}
	// Plain election drops the dictionary: the state is one mode byte.
	if seg.StateBytes() != 1 {
		t.Fatalf("all-distinct GDICT state = %d bytes, want 1 (plain election)", seg.StateBytes())
	}
	got := scanAll(t, seg)
	for i := range rows {
		if !bytes.Equal(canonical(s, got[i]), canonical(s, rows[i])) {
			t.Fatalf("row %d mismatch", i)
		}
	}
	// The size model must agree that the dictionary loses: GDICT degrades to
	// roughly ROW size, never worse than a small overhead.
	if gd, row := sizeRows(t, s, rows, GlobalDict), sizeRows(t, s, rows, Row); gd > row {
		t.Fatalf("all-distinct GDICT modeled %d > ROW %d — plain election missing from model", gd, row)
	}
}

// TestRLEConstantColumn: a constant column is RLE's best case — whole pages
// collapse to a handful of run headers.
func TestRLEConstantColumn(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "region", Kind: storage.KindString, FixedWidth: 8},
		storage.Column{Name: "status", Kind: storage.KindInt},
	)
	rows := make([]storage.Row, 5000)
	for i := range rows {
		rows[i] = storage.Row{storage.StringVal("EUROPE"), storage.IntVal(1)}
	}
	rle, err := storage.BuildSegment(s, rows, Codec(RLE))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := storage.BuildSegment(s, rows, Codec(None))
	if err != nil {
		t.Fatal(err)
	}
	if rle.PayloadBytes()*20 >= plain.PayloadBytes() {
		t.Fatalf("constant-column RLE payload %d not ≪ plain %d", rle.PayloadBytes(), plain.PayloadBytes())
	}
	got := scanAll(t, rle)
	for i := range rows {
		if !bytes.Equal(canonical(s, got[i]), canonical(s, rows[i])) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

// TestSegmentStateRoundTrip serializes a built design codec's segment
// state and rebuilds a fresh codec from it, which must decode every page of
// the segment file identically — the reopen path for segment files.
func TestSegmentStateRoundTrip(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(600, 0.2, 41)
	def, over := Row, map[string]Method{"mode": GlobalDict, "comment": GlobalDict, "ship": RLE}
	codec := DesignCodec(def, over)
	seg, err := storage.BuildSegment(s, rows, codec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.cadbseg")
	sf, err := storage.WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if len(sf.State()) == 0 {
		t.Fatal("expected non-empty segment state for a GDICT design")
	}

	fresh := DesignCodec(def, over)
	if err := fresh.LoadSegmentState(s, sf.State()); err != nil {
		t.Fatalf("LoadSegmentState: %v", err)
	}
	at := 0
	for p := 0; p < sf.NumPages(); p++ {
		payload, err := sf.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.NewDecoder(s, &storage.DecodeSpec{Needed: s.AllOrdinals()}).Decode(payload, seg.PageRows(p), nil)
		if err != nil {
			t.Fatalf("page %d: full decode after state reload: %v", p, err)
		}
		for _, r := range got.Rows {
			if !bytes.Equal(canonical(s, r), canonical(s, rows[at])) {
				t.Fatalf("page %d: row %d mismatch after state reload", p, at)
			}
			at++
		}
	}
	if at != len(rows) {
		t.Fatalf("decoded %d rows, want %d", at, len(rows))
	}

	// The design recorded in the file matches the codec's method vector.
	ids := codec.ColumnMethodIDs(s)
	design := sf.Design()
	if len(design) != len(s.Columns) {
		t.Fatalf("file design has %d columns, want %d", len(design), len(s.Columns))
	}
	for i, c := range s.Columns {
		if design[i].Name != c.Name || design[i].Method != ids[i] {
			t.Fatalf("design[%d] = {%q, %d}, want {%q, %d}", i, design[i].Name, design[i].Method, c.Name, ids[i])
		}
	}
}

// cadbseg2GoldenSHA pins the exact bytes of a CADBSEG2 file written for a
// deterministic mixed design. Any change to the header layout, the
// column-major page format, GDICT code assignment, or RLE run encoding will
// shift this hash — bump it only with a deliberate format change.
const cadbseg2GoldenSHA = "d6caa64afaf620708c516f2fa481aab6274139519875da741e8964aac80f3774"

func TestCADBSEG2GoldenBytes(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(500, 0.2, 77)
	over := map[string]Method{"mode": GlobalDict, "comment": GlobalDict, "ship": RLE, "price": None}
	seg, err := storage.BuildSegment(s, rows, DesignCodec(Row, over))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.cadbseg")
	sf, err := storage.WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("CADBSEG2")) {
		t.Fatalf("segment file magic %q", raw[:8])
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != cadbseg2GoldenSHA {
		t.Fatalf("CADBSEG2 golden bytes changed:\n got %s\nwant %s\n(%d bytes)", got, cadbseg2GoldenSHA, len(raw))
	}
	// Reopening must reproduce the design vector and round-trip the rows.
	re, err := storage.OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.CodecName() != "MIXED" {
		t.Fatalf("codec name %q, want MIXED", re.CodecName())
	}
	wantMethods := map[string]Method{
		"id": Row, "qty": Row, "price": None, "ship": RLE, "mode": GlobalDict, "comment": GlobalDict,
	}
	for _, dc := range re.Design() {
		if Method(dc.Method) != wantMethods[dc.Name] {
			t.Fatalf("column %q recorded method %s, want %s", dc.Name, Method(dc.Method), wantMethods[dc.Name])
		}
	}
}

// TestUniformIsOneValueVector: a uniform method is nothing but a design
// vector with one value. DesignCodec(m, nil) and a design that reaches m on
// every column through overrides must be indistinguishable — same name, same
// pages, same segment file.
func TestUniformIsOneValueVector(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(700, 0.2, 123)
	dir := t.TempDir()
	build := func(label string, c storage.PageCodec) (*storage.Segment, []byte) {
		seg, err := storage.BuildSegment(s, rows, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		path := filepath.Join(dir, label)
		sf, err := storage.WriteSegmentFile(path, seg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sf.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return seg, raw
	}
	for i, m := range codecMethods {
		other := codecMethods[(i+1)%len(codecMethods)]
		over := make(map[string]Method, len(s.Columns))
		for _, c := range s.Columns {
			over[c.Name] = m
		}
		plain, plainFile := build(m.String()+"-plain", DesignCodec(m, nil))
		viaOver, overFile := build(m.String()+"-overridden", DesignCodec(other, over))
		if plain.Codec.Name() != m.String() || viaOver.Codec.Name() != m.String() {
			t.Fatalf("%s: codecs are named %q and %q", m, plain.Codec.Name(), viaOver.Codec.Name())
		}
		if plain.NumPages() != viaOver.NumPages() {
			t.Fatalf("%s: %d pages vs %d through overrides", m, plain.NumPages(), viaOver.NumPages())
		}
		for p := 0; p < plain.NumPages(); p++ {
			if !bytes.Equal(plain.Page(p).Payload, viaOver.Page(p).Payload) {
				t.Fatalf("%s: page %d differs when the method arrives through overrides", m, p)
			}
		}
		if !bytes.Equal(plainFile, overFile) {
			t.Fatalf("%s: segment files differ (%d vs %d bytes)", m, len(plainFile), len(overFile))
		}
	}
}

// TestDesignSizesConcurrent: SampleCF sizes a structure's variants from one
// DesignSizes on many goroutines, so measuring a method on first use must be
// race-free and give every design what a fresh model gives it.
func TestDesignSizesConcurrent(t *testing.T) {
	s := codecSchema()
	rows := genCodecRows(900, 0.2, 5)
	type design struct {
		def  Method
		over map[string]Method
	}
	var designs []design
	for _, m := range codecMethods {
		designs = append(designs, design{m, nil})
	}
	for _, d := range mixedDesigns {
		designs = append(designs, design{d.def, d.over})
	}
	shared := MeasureDesignSizes(s, rows)
	got := make([]int64, 4*len(designs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := designs[i%len(designs)]
			n, err := shared.SizeFor(d.def, d.over)
			if err != nil {
				t.Error(err)
			}
			got[i] = n
		}()
	}
	wg.Wait()
	for i, n := range got {
		d := designs[i%len(designs)]
		if want, err := MeasureDesignSizes(s, rows).SizeFor(d.def, d.over); err != nil || n != want {
			t.Errorf("%s%v: %d bytes from the shared model, %d (%v) from a fresh one", d.def, d.over, n, want, err)
		}
	}
}
