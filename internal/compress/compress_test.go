package compress

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cadb/internal/storage"
)

func schemaAB() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "a", Kind: storage.KindInt},
		storage.Column{Name: "b", Kind: storage.KindString, FixedWidth: 20},
	)
}

// genRows produces rows where column a has dA distinct values and column b
// has dB distinct short strings padded into CHAR(20).
func genRows(n, dA, dB int, seed int64) []storage.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(rng.Intn(dA))),
			storage.StringVal(stateName(rng.Intn(dB))),
		}
	}
	return rows
}

func stateName(i int) string {
	names := []string{"CA", "WA", "NY", "TX", "OR", "FL", "MA", "IL", "GA", "PA"}
	return names[i%len(names)]
}

func sortRows(rows []storage.Row, col int) []storage.Row {
	out := make([]storage.Row, len(rows))
	copy(out, rows)
	sort.SliceStable(out, func(i, j int) bool { return out[i][col].Compare(out[j][col]) < 0 })
	return out
}

// sizeRows is the size model's bytes for the rows under one uniform method.
func sizeRows(t testing.TB, s *storage.Schema, rows []storage.Row, m Method) int64 {
	t.Helper()
	n, err := MeasureDesignSizes(s, rows).SizeFor(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fraction is Fraction, failing the test on an error.
func fraction(t testing.TB, s *storage.Schema, rows []storage.Row, m Method) float64 {
	t.Helper()
	cf, err := Fraction(s, rows, m)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestMethodClass(t *testing.T) {
	if Row.Class() != OrderIndependent || GlobalDict.Class() != OrderIndependent {
		t.Fatal("ROW and GDICT must be ORD-IND")
	}
	if Page.Class() != OrderDependent || RLE.Class() != OrderDependent {
		t.Fatal("PAGE and RLE must be ORD-DEP")
	}
	if None.Class() != OrderIndependent {
		t.Fatal("NONE is trivially order-independent")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range append([]Method{None}, Methods...) {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestCompressionReducesSize(t *testing.T) {
	s := schemaAB()
	rows := genRows(3000, 5, 5, 1)
	unc := sizeRows(t, s, rows, None)
	for _, m := range Methods {
		c := sizeRows(t, s, rows, m)
		if c <= 0 {
			t.Fatalf("%s: non-positive size", m)
		}
		if c >= unc {
			t.Errorf("%s: compressed %d >= uncompressed %d on low-cardinality data", m, c, unc)
		}
	}
}

func TestOrderIndependenceOfRowAndGlobalDict(t *testing.T) {
	s := schemaAB()
	rows := genRows(2000, 10, 10, 2)
	shuffled := make([]storage.Row, len(rows))
	copy(shuffled, rows)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, m := range []Method{Row, GlobalDict} {
		a := sizeRows(t, s, rows, m)
		b := sizeRows(t, s, shuffled, m)
		if a != b {
			t.Errorf("%s: order changed size: %d vs %d", m, a, b)
		}
	}
}

func TestOrderDependenceOfPageAndRLE(t *testing.T) {
	s := schemaAB()
	// Many distinct ints, few strings: sorting by the string column groups
	// repeats into pages and should shrink PAGE/RLE sizes.
	rows := genRows(4000, 100000, 4, 3)
	sorted := sortRows(rows, 1)
	for _, m := range []Method{Page, RLE} {
		random := sizeRows(t, s, rows, m)
		grouped := sizeRows(t, s, sorted, m)
		if grouped >= random {
			t.Errorf("%s: sorted-by-repeats size %d not smaller than random %d", m, grouped, random)
		}
	}
}

func TestRLECollapsesSortedRuns(t *testing.T) {
	s := storage.NewSchema(storage.Column{Name: "k", Kind: storage.KindInt})
	rows := make([]storage.Row, 10000)
	for i := range rows {
		rows[i] = storage.Row{storage.IntVal(int64(i / 2500))} // 4 long runs
	}
	rle := sizeRows(t, s, rows, RLE)
	unc := sizeRows(t, s, rows, None)
	if rle*20 > unc {
		t.Fatalf("RLE on 4 runs should compress >20x: rle=%d unc=%d", rle, unc)
	}
}

func TestGlobalDictSkipsHighCardinalityColumns(t *testing.T) {
	// Unique random strings: a dictionary cannot help, so GDICT must not be
	// (much) worse than ROW-style plain storage.
	s := storage.NewSchema(storage.Column{Name: "u", Kind: storage.KindString})
	rng := rand.New(rand.NewSource(4))
	rows := make([]storage.Row, 2000)
	for i := range rows {
		b := make([]byte, 16)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		rows[i] = storage.Row{storage.StringVal(string(b))}
	}
	gd := sizeRows(t, s, rows, GlobalDict)
	rowc := sizeRows(t, s, rows, Row)
	if gd > rowc+int64(len(rows)) {
		t.Fatalf("GDICT should fall back to plain storage: gd=%d row=%d", gd, rowc)
	}
}

func TestNullHeavyColumnCompressesUnderRow(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "pad", Kind: storage.KindString, FixedWidth: 40, Nullable: true},
	)
	rows := make([]storage.Row, 1000)
	for i := range rows {
		rows[i] = storage.Row{storage.IntVal(int64(i)), storage.NullValue(storage.KindString)}
	}
	cf := fraction(t, s, rows, Row)
	if cf > 0.5 {
		t.Fatalf("NULL-heavy CHAR(40) should compress below 0.5 under ROW, got %v", cf)
	}
}

func TestFractionBounds(t *testing.T) {
	s := schemaAB()
	rows := genRows(1500, 8, 8, 5)
	for _, m := range Methods {
		cf := fraction(t, s, rows, m)
		if cf <= 0 || cf > 1.6 {
			t.Errorf("%s: implausible CF %v", m, cf)
		}
	}
	if fraction(t, s, nil, Row) != 1 {
		t.Fatal("empty input must have CF=1")
	}
	if fraction(t, s, rows, None) != 1 {
		t.Fatal("None must have CF=1")
	}
}

func TestSizeForEmptyInput(t *testing.T) {
	s := schemaAB()
	for _, m := range append([]Method{None}, Methods...) {
		if got := sizeRows(t, s, nil, m); got != 0 {
			t.Errorf("%s: empty input size=%d want 0", m, got)
		}
	}
}

func TestColSetInvariantForOrdInd(t *testing.T) {
	// The ColSet deduction (Section 4.2) rests on this invariant: for
	// ORD-IND methods, indexes with the same column set have the same
	// compressed size regardless of key order. Verify with AB vs BA.
	sAB := storage.NewSchema(
		storage.Column{Name: "a", Kind: storage.KindInt},
		storage.Column{Name: "b", Kind: storage.KindString, FixedWidth: 12},
	)
	sBA := storage.NewSchema(
		storage.Column{Name: "b", Kind: storage.KindString, FixedWidth: 12},
		storage.Column{Name: "a", Kind: storage.KindInt},
	)
	rows := genRows(3000, 20, 6, 11)
	// Build AB rows sorted by (a,b) and BA rows sorted by (b,a).
	ab := make([]storage.Row, len(rows))
	ba := make([]storage.Row, len(rows))
	for i, r := range rows {
		ab[i] = storage.Row{r[0], r[1]}
		ba[i] = storage.Row{r[1], r[0]}
	}
	sort.Slice(ab, func(i, j int) bool {
		if c := ab[i][0].Compare(ab[j][0]); c != 0 {
			return c < 0
		}
		return ab[i][1].Compare(ab[j][1]) < 0
	})
	sort.Slice(ba, func(i, j int) bool {
		if c := ba[i][0].Compare(ba[j][0]); c != 0 {
			return c < 0
		}
		return ba[i][1].Compare(ba[j][1]) < 0
	})
	for _, m := range []Method{Row, GlobalDict} {
		sa := sizeRows(t, sAB, ab, m)
		sb := sizeRows(t, sBA, ba, m)
		if sa != sb {
			t.Errorf("%s: Size(I_AB)=%d != Size(I_BA)=%d", m, sa, sb)
		}
	}
}

func TestQuickCompressedNeverBeyondSmallOverhead(t *testing.T) {
	// Property: for any data, ROW compression never exceeds the uncompressed
	// size by more than the per-value length descriptors.
	s := storage.NewSchema(
		storage.Column{Name: "x", Kind: storage.KindInt},
		storage.Column{Name: "y", Kind: storage.KindString},
	)
	f := func(xs []int64, ys []string) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		rows := make([]storage.Row, n)
		for i := 0; i < n; i++ {
			y := ys[i]
			if len(y) > 1000 {
				y = y[:1000]
			}
			rows[i] = storage.Row{storage.IntVal(xs[i]), storage.StringVal(y)}
		}
		unc := sizeRows(t, s, rows, None)
		rc := sizeRows(t, s, rows, Row)
		// Each value adds at most 2 descriptor bytes over its payload.
		return rc <= unc+int64(4*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
