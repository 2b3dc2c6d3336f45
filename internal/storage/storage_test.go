package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "price", Kind: KindFloat},
		Column{Name: "state", Kind: KindString, FixedWidth: 10, Nullable: true},
		Column{Name: "comment", Kind: KindString},
		Column{Name: "ship", Kind: KindDate, Nullable: true},
	)
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{FloatVal(1.5), FloatVal(2.5), -1},
		{StringVal("abc"), StringVal("abd"), -1},
		{StringVal("b"), StringVal("ab"), 1},
		{DateVal(10), DateVal(10), 0},
		{NullValue(KindInt), IntVal(0), -1},
		{IntVal(0), NullValue(KindInt), 1},
		{NullValue(KindInt), NullValue(KindInt), 0},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: Compare(%v,%v)=%d want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyEquality(t *testing.T) {
	a := StringVal("hello")
	b := StringVal("hello")
	if a.Key() != b.Key() {
		t.Fatal("equal string values must have equal keys")
	}
	if IntVal(5).Key() == IntVal(6).Key() {
		t.Fatal("distinct ints must have distinct keys")
	}
	if NullValue(KindInt).Key() == IntVal(0).Key() {
		t.Fatal("NULL and 0 must have distinct keys")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if got := s.ColIndex("PRICE"); got != 1 {
		t.Fatalf("ColIndex(PRICE)=%d want 1 (case-insensitive)", got)
	}
	if s.ColIndex("missing") != -1 {
		t.Fatal("missing column should return -1")
	}
	if !s.Has("ship") || s.Has("nothere") {
		t.Fatal("Has misbehaves")
	}
	p := s.Project([]string{"state", "id"})
	if len(p.Columns) != 2 || p.Columns[0].Name != "state" || p.Columns[1].Name != "id" {
		t.Fatalf("Project wrong: %v", p.Names())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "A", Kind: KindInt})
}

func sampleRow() Row {
	return Row{
		IntVal(42),
		FloatVal(19.99),
		StringVal("CA"),
		StringVal("fast delivery"),
		DateVal(14000),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	rows := []Row{
		sampleRow(),
		{IntVal(-7), FloatVal(0), NullValue(KindString), StringVal(""), NullValue(KindDate)},
		{IntVal(1 << 40), FloatVal(-3.25), StringVal("WASHINGTON"), StringVal("x"), DateVal(-5)},
	}
	for i, r := range rows {
		enc := EncodeRow(s, r, nil)
		if len(enc) != EncodedRowSize(s, r) {
			t.Fatalf("row %d: size mismatch: got %d want %d", i, len(enc), EncodedRowSize(s, r))
		}
		dec, n, err := DecodeRow(s, enc)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("row %d: consumed %d of %d", i, n, len(enc))
		}
		for j := range r {
			if !dec[j].Equal(r[j]) && !(r[j].Null && dec[j].Null) {
				t.Errorf("row %d col %d: got %v want %v", i, j, dec[j], r[j])
			}
			if r[j].Null != dec[j].Null {
				t.Errorf("row %d col %d: null mismatch", i, j)
			}
		}
	}
}

func TestEncodeRowFixedCharPadding(t *testing.T) {
	s := NewSchema(Column{Name: "c", Kind: KindString, FixedWidth: 8})
	r := Row{StringVal("ab")}
	enc := EncodeRow(s, r, nil)
	// 1 bitmap byte + 8 padded chars.
	if len(enc) != 9 {
		t.Fatalf("CHAR(8) row size=%d want 9", len(enc))
	}
	dec, _, err := DecodeRow(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].Str != "ab" {
		t.Fatalf("padding not stripped: %q", dec[0].Str)
	}
}

func TestEncodeRowTruncatesOversizedChar(t *testing.T) {
	s := NewSchema(Column{Name: "c", Kind: KindString, FixedWidth: 3})
	enc := EncodeRow(s, Row{StringVal("abcdef")}, nil)
	dec, _, err := DecodeRow(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].Str != "abc" {
		t.Fatalf("got %q want %q", dec[0].Str, "abc")
	}
}

func TestDecodeRowShortInput(t *testing.T) {
	s := testSchema()
	enc := EncodeRow(s, sampleRow(), nil)
	for _, cut := range []int{0, 1, 5, len(enc) - 1} {
		if _, _, err := DecodeRow(s, enc[:cut]); err == nil {
			t.Errorf("cut=%d: expected error on truncated input", cut)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindFloat},
		Column{Name: "c", Kind: KindString},
	)
	f := func(a int64, b float64, c string, aNull, cNull bool) bool {
		// NaN compares unequal to itself; skip those inputs.
		if b != b {
			return true
		}
		if len(c) > 0xFFFF {
			c = c[:0xFFFF]
		}
		r := Row{IntVal(a), FloatVal(b), StringVal(c)}
		if aNull {
			r[0] = NullValue(KindInt)
		}
		if cNull {
			r[2] = NullValue(KindString)
		}
		enc := EncodeRow(s, r, nil)
		dec, n, err := DecodeRow(s, enc)
		if err != nil || n != len(enc) {
			return false
		}
		for i := range r {
			if r[i].Null != dec[i].Null {
				return false
			}
			if !r[i].Null && !r[i].Equal(dec[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackRowsBasic(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt})
	var rows []Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, Row{IntVal(int64(i))})
	}
	groups, total := PackRows(s, rows), PackedBytes(s, rows)
	if total <= 0 {
		t.Fatal("total must be positive")
	}
	// Every row appears in exactly one group, in order.
	at := 0
	for _, g := range groups {
		if g.Start != at {
			t.Fatalf("gap: group starts at %d, expected %d", g.Start, at)
		}
		if g.End <= g.Start {
			t.Fatalf("empty group %+v", g)
		}
		if g.Bytes > UsablePageBytes {
			t.Fatalf("group overflows a page: %d", g.Bytes)
		}
		at = g.End
	}
	if at != len(rows) {
		t.Fatalf("groups cover %d rows, want %d", at, len(rows))
	}
	if len(groups) < 2 {
		t.Fatalf("5000 rows should span multiple pages, got %d groups", len(groups))
	}
}

// TestPackRowsOversizedRowAccounting pins the overflow-page fix: a row wider
// than a page must be charged whole overflow pages (ceil of its true encoded
// size), not clamped to a single page — clamping under-counted the heap and
// compression-fraction estimates of wide-string schemas.
func TestPackRowsOversizedRowAccounting(t *testing.T) {
	s := NewSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "blob", Kind: KindString},
	)
	big := make([]byte, 2*UsablePageBytes+500)
	for i := range big {
		big[i] = 'a'
	}
	rows := []Row{
		{IntVal(1), StringVal("x")},
		{IntVal(2), StringVal(string(big))},
		{IntVal(3), StringVal("y")},
	}
	groups, total := PackRows(s, rows), PackedBytes(s, rows)
	if len(groups) != 3 {
		t.Fatalf("want 3 groups (row, overflow run, row), got %d: %+v", len(groups), groups)
	}
	over := groups[1]
	if over.Start != 1 || over.End != 2 {
		t.Fatalf("overflow group must hold exactly the oversized row: %+v", over)
	}
	sz := EncodedRowSize(s, rows[1]) + SlotSize
	wantBytes := int(PagesForBytes(int64(sz))) * UsablePageBytes
	if over.Bytes != wantBytes {
		t.Fatalf("overflow charged %d bytes, want %d (ceil of %d)", over.Bytes, wantBytes, sz)
	}
	if total < int64(sz) {
		t.Fatalf("total %d under-counts the oversized row (%d encoded bytes)", total, sz)
	}
	if got := PagesForBytes(total); got < 3 {
		t.Fatalf("a >2-page row must need at least 3 pages, got %d", got)
	}
	// Row coverage stays contiguous.
	at := 0
	for _, g := range groups {
		if g.Start != at {
			t.Fatalf("gap at %d: %+v", at, g)
		}
		at = g.End
	}
}

func TestPackRowsEmpty(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt})
	groups, total := PackRows(s, nil), PackedBytes(s, nil)
	if len(groups) != 0 || total != 0 {
		t.Fatalf("empty input: groups=%d total=%d", len(groups), total)
	}
}

func TestPagesForBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want int64
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{UsablePageBytes, 1},
		{UsablePageBytes + 1, 2},
		{10 * UsablePageBytes, 10},
	}
	for _, c := range cases {
		if got := PagesForBytes(c.n); got != c.want {
			t.Errorf("PagesForBytes(%d)=%d want %d", c.n, got, c.want)
		}
	}
}

func TestAvgRowWidth(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(1))
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{
			IntVal(rng.Int63n(1000)),
			FloatVal(rng.Float64()),
			StringVal("NY"),
			StringVal("some comment"),
			DateVal(int64(rng.Intn(3650))),
		})
	}
	avg := s.AvgRowWidth(rows)
	if avg <= 0 {
		t.Fatal("average width must be positive")
	}
	// With fixed-width parts only varying by the comment, the average must
	// equal the exact encoded size of any row here (all same widths).
	if want := float64(EncodedRowSize(s, rows[0])); avg != want {
		t.Fatalf("avg=%v want %v", avg, want)
	}
	if s.AvgRowWidth(nil) != float64(s.RowWidth()) {
		t.Fatal("empty input should fall back to schema RowWidth")
	}
}

func TestRowWithValueCopyOnWrite(t *testing.T) {
	r := Row{IntVal(1), StringVal("a")}
	r2 := r.WithValue(1, StringVal("b"))
	if r[1].Str != "a" {
		t.Fatal("WithValue must not mutate the receiver")
	}
	if r2[0].Int != 1 || r2[1].Str != "b" {
		t.Fatalf("WithValue result wrong: %v", r2)
	}
}
