package compress

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cadb/internal/storage"
)

// codecMethods are the materializable methods: every method.
var codecMethods = []Method{None, Row, Page, GlobalDict, RLE}

func codecSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "qty", Kind: storage.KindInt, Nullable: true},
		storage.Column{Name: "price", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "ship", Kind: storage.KindDate, Nullable: true},
		storage.Column{Name: "mode", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
		storage.Column{Name: "comment", Kind: storage.KindString, Nullable: true},
	)
}

// genCodecRows produces rows over codecSchema with the given NULL fraction,
// including edge values (zero, negatives, empty and repeated strings).
func genCodecRows(n int, nullFrac float64, seed int64) []storage.Row {
	rng := rand.New(rand.NewSource(seed))
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "", "FOB"}
	rows := make([]storage.Row, n)
	for i := range rows {
		maybe := func(v storage.Value) storage.Value {
			if rng.Float64() < nullFrac {
				return storage.NullValue(v.Kind)
			}
			return v
		}
		rows[i] = storage.Row{
			storage.IntVal(int64(i) - int64(n)/2), // negatives exercise zigzag
			maybe(storage.IntVal(int64(rng.Intn(50)))),
			maybe(storage.FloatVal(rng.NormFloat64() * 1e4)),
			maybe(storage.DateVal(int64(rng.Intn(3650)))),
			maybe(storage.StringVal(modes[rng.Intn(len(modes))])),
			maybe(storage.StringVal(strings.Repeat("x", rng.Intn(40)))),
		}
	}
	return rows
}

// canonical encodes a row with the uncompressed codec, the byte-identity
// yardstick every compressed round trip must reproduce.
func canonical(s *storage.Schema, r storage.Row) []byte {
	return storage.EncodeRow(s, r, nil)
}

func assertRoundTrip(t *testing.T, s *storage.Schema, rows []storage.Row, m Method) {
	t.Helper()
	seg, err := storage.BuildSegment(s, rows, Codec(m))
	if err != nil {
		t.Fatalf("%s: BuildSegment: %v", m, err)
	}
	got := scanAll(t, seg)
	if len(got) != len(rows) {
		t.Fatalf("%s: decoded %d rows, want %d", m, len(got), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(canonical(s, got[i]), canonical(s, rows[i])) {
			t.Fatalf("%s: row %d differs:\n got %v\nwant %v", m, i, got[i], rows[i])
		}
	}
	if seg.Rows() != int64(len(rows)) {
		t.Fatalf("%s: Rows()=%d want %d", m, seg.Rows(), len(rows))
	}
}

// assertSizeAccounting checks the segment's accounted payload against the
// size model: NONE and ROW values cost exactly what the sizers charge, so
// the two differ only by the column-major framing; the page-structured
// methods stay within a documented real-format overhead plus 10%. On
// realistic multi-row pages (ext-measured asserts TPC-H/Sales) the framing
// amortizes under 1% and the overhead under the plain 10%.
func assertSizeAccounting(t *testing.T, s *storage.Schema, rows []storage.Row, m Method) {
	t.Helper()
	seg, err := storage.BuildSegment(s, rows, Codec(m))
	if err != nil {
		t.Fatalf("%s: BuildSegment: %v", m, err)
	}
	est := SizeRows(s, rows, m)
	got := seg.PayloadBytes()
	var slack int64
	cols := len(s.Columns)
	switch m {
	case None, Row:
		// The format pays a u16 row count per page and, per column section, a
		// length frame and a null bitmap of one bit per row; the model
		// charges one row-major bitmap per row instead.
		for i := 0; i < seg.NumPages(); i++ {
			slack += int64(2 + cols*(2+(seg.PageRows(i)+7)/8))
		}
		if d := got - est; d > slack || d < -int64(len(rows)*((cols+7)/8)) {
			t.Fatalf("%s: materialized %d bytes vs estimate %d (framing allows +%d)", m, got, est, slack)
		}
		return
	case Page:
		// The real PAGE format pays a u16 row count per page plus, per
		// column, a u16 dictionary count, the dictionary bitmap and a
		// column-major null bitmap the model spreads per row.
		for i := 0; i < seg.NumPages(); i++ {
			n := seg.PageRows(i)
			slack += int64(2 + cols*(4+2*((n+7)/8)))
		}
	case GlobalDict:
		// The real format pays section framing, mode/width bytes and
		// column-major null bitmaps (the model spreads one row-major bitmap
		// per row — the rounding differs in both directions), plus per-column
		// state-block headers the model does not see.
		for i := 0; i < seg.NumPages(); i++ {
			n := seg.PageRows(i)
			slack += int64(2 + cols*(4+(n+7)/8) + n*((cols+7)/8))
		}
		slack += int64(cols * 8)
	case RLE:
		// Value runs cost exactly what the model charges (2-byte header +
		// prefixed value vs prefixed value + 2); NULL runs cost 2 bytes where
		// the model charges its 8-byte sentinel run, and compressed-fit page
		// boundaries can split runs the model's uncompressed grouping keeps
		// whole.
		for i := 0; i < seg.NumPages(); i++ {
			slack += int64(2 + cols*14)
		}
		for ci := range s.Columns {
			nullRuns := 0
			inRun := false
			for _, r := range rows {
				if r[ci].Null && !inRun {
					nullRuns++
				}
				inRun = r[ci].Null
			}
			slack += int64(6 * nullRuns)
		}
	}
	if d := got - est; d < -slack-est/10 || d > slack+est/10 {
		t.Fatalf("%s: materialized %d bytes vs estimate %d (slack %d)", m, got, est, slack)
	}
}

func TestCodecRoundTripSeedTable(t *testing.T) {
	s := codecSchema()
	// Fuzz-style seed table: (row count, null fraction, seed) triples hitting
	// page boundaries, NULL-heavy data and multi-page segments.
	cases := []struct {
		n        int
		nullFrac float64
		seed     int64
	}{
		{1, 0, 1},
		{1, 1, 2},
		{7, 0.9, 3},
		{64, 0.5, 4},
		{181, 0.25, 5},
		{500, 0.05, 6},
		{500, 0.95, 7},
		{1200, 0.33, 8},
		{999, 0.0, 9},
		{256, 0.66, 10},
	}
	for _, tc := range cases {
		rows := genCodecRows(tc.n, tc.nullFrac, tc.seed)
		for _, m := range codecMethods {
			assertRoundTrip(t, s, rows, m)
			assertSizeAccounting(t, s, rows, m)
		}
	}
}

func TestCodecEmptyTable(t *testing.T) {
	s := codecSchema()
	for _, m := range codecMethods {
		seg, err := storage.BuildSegment(s, nil, Codec(m))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if seg.NumPages() != 0 || seg.Rows() != 0 || seg.PayloadBytes() != 0 || seg.PhysicalPages() != 0 {
			t.Fatalf("%s: empty segment not empty: %+v", m, seg)
		}
		if rows := scanAll(t, seg); len(rows) != 0 {
			t.Fatalf("%s: empty scan: %v", m, rows)
		}
	}
}

func TestCodecSingleRow(t *testing.T) {
	s := codecSchema()
	rows := []storage.Row{{
		storage.IntVal(0),
		storage.IntVal(-1),
		storage.FloatVal(math.Copysign(0, -1)), // negative zero, bit-exact
		storage.DateVal(0),
		storage.StringVal(""),
		storage.StringVal("solo"),
	}}
	for _, m := range codecMethods {
		assertRoundTrip(t, s, rows, m)
		seg, _ := storage.BuildSegment(s, rows, Codec(m))
		if seg.NumPages() != 1 || seg.PhysicalPages() != 1 {
			t.Fatalf("%s: single row wants one page, got %d/%d", m, seg.NumPages(), seg.PhysicalPages())
		}
	}
}

func TestCodecOversizedRows(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "blob", Kind: storage.KindString},
	)
	big := strings.Repeat("Z", 2*storage.UsablePageBytes+123)
	rows := []storage.Row{
		{storage.IntVal(1), storage.StringVal("small")},
		{storage.IntVal(2), storage.StringVal(big)},
		{storage.IntVal(3), storage.StringVal("after")},
	}
	for _, m := range codecMethods {
		assertRoundTrip(t, s, rows, m)
		seg, err := storage.BuildSegment(s, rows, Codec(m))
		if err != nil {
			t.Fatal(err)
		}
		// The oversized row needs an overflow run of at least 3 pages.
		if seg.PhysicalPages() < 4 {
			t.Fatalf("%s: oversized row under-counted: %d physical pages", m, seg.PhysicalPages())
		}
	}
}

func TestCodecCharNormalization(t *testing.T) {
	// CHAR(n) values are truncated to n and stripped of trailing blanks on
	// decode — the same normalization the uncompressed row codec applies.
	s := storage.NewSchema(storage.Column{Name: "c", Kind: storage.KindString, FixedWidth: 4})
	rows := []storage.Row{
		{storage.StringVal("ab  ")},
		{storage.StringVal("toolong")},
		{storage.StringVal("ok")},
	}
	want := []string{"ab", "tool", "ok"}
	for _, m := range codecMethods {
		seg, err := storage.BuildSegment(s, rows, Codec(m))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := scanAll(t, seg)
		for i := range got {
			if got[i][0].Str != want[i] {
				t.Fatalf("%s: row %d = %q want %q", m, i, got[i][0].Str, want[i])
			}
		}
	}
}

func TestCodecPageLocalDictionary(t *testing.T) {
	// Low-cardinality sorted data must compress under PAGE: repeated suffixes
	// become 1-byte codes.
	s := storage.NewSchema(storage.Column{Name: "mode", Kind: storage.KindString, FixedWidth: 10})
	var rows []storage.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, storage.Row{storage.StringVal(stateName(i % 4))})
	}
	segPage, err := storage.BuildSegment(s, rows, Codec(Page))
	if err != nil {
		t.Fatal(err)
	}
	segNone, err := storage.BuildSegment(s, rows, Codec(None))
	if err != nil {
		t.Fatal(err)
	}
	if segPage.PayloadBytes() >= segNone.PayloadBytes()/2 {
		t.Fatalf("PAGE did not compress: %d vs NONE %d", segPage.PayloadBytes(), segNone.PayloadBytes())
	}
	assertRoundTrip(t, s, rows, Page)
}

func TestEveryMethodHasCodec(t *testing.T) {
	for _, m := range append([]Method{None}, Methods...) {
		c := Codec(m)
		if !HasCodec(m) || c == nil {
			t.Fatalf("%s must have a codec", m)
		}
		if c.Name() != m.String() {
			t.Fatalf("%s codec is named %q", m, c.Name())
		}
	}
	if Codec(numMethods) != nil || HasCodec(numMethods) || DesignCodec(Row, map[string]Method{"mode": numMethods}) != nil {
		t.Fatal("an unknown method must have no codec")
	}
	// A codec carries its segment's state, so it must be fresh per call: a
	// shared GDICT instance would leak one segment's dictionary into the
	// next build.
	if Codec(GlobalDict) == Codec(GlobalDict) {
		t.Fatal("Codec(GlobalDict) must return a fresh instance per call")
	}
	mixed := DesignCodec(Row, map[string]Method{"mode": GlobalDict})
	if mixed.Name() != "MIXED" {
		t.Fatalf("mixed design codec is named %q", mixed.Name())
	}
	// Overrides equal to the default collapse back to a uniform design.
	if DesignCodec(Row, map[string]Method{"mode": Row}).Name() != "ROW" {
		t.Fatal("no-op overrides must collapse to the uniform design")
	}
}
