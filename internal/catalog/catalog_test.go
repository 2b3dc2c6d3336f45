package catalog

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cadb/internal/storage"
)

func testTable(n int, seed int64) *Table {
	sch := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "grp", Kind: storage.KindInt},
		storage.Column{Name: "amt", Kind: storage.KindFloat},
		storage.Column{Name: "tag", Kind: storage.KindString, FixedWidth: 8, Nullable: true},
	)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Row, n)
	for i := range rows {
		tag := storage.StringVal([]string{"red", "green", "blue"}[rng.Intn(3)])
		if rng.Intn(5) == 0 {
			tag = storage.NullValue(storage.KindString)
		}
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(rng.Intn(10))),
			storage.FloatVal(rng.Float64() * 100),
			tag,
		}
	}
	return &Table{Name: "t", Schema: sch, Rows: rows, PK: []string{"id"}}
}

func TestDatabaseTableRegistry(t *testing.T) {
	db := NewDatabase("test")
	tab := testTable(10, 1)
	db.AddTable(tab)
	if db.Table("T") != tab {
		t.Fatal("lookup should be case-insensitive")
	}
	if db.Table("missing") != nil {
		t.Fatal("missing table should be nil")
	}
	if got := len(db.Tables()); got != 1 {
		t.Fatalf("Tables()=%d want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddTable must panic")
		}
	}()
	db.AddTable(testTable(5, 2))
}

func TestMustTablePanics(t *testing.T) {
	db := NewDatabase("x")
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable on missing table must panic")
		}
	}()
	db.MustTable("nope")
}

func TestStatsBasics(t *testing.T) {
	tab := testTable(1000, 3)
	st := tab.Stats()
	if st.RowCount != 1000 {
		t.Fatalf("RowCount=%d", st.RowCount)
	}
	id := st.Col("id")
	if id.Distinct != 1000 {
		t.Fatalf("id distinct=%d want 1000", id.Distinct)
	}
	if id.Min.Int != 0 || id.Max.Int != 999 {
		t.Fatalf("id range [%v,%v]", id.Min, id.Max)
	}
	grp := st.Col("grp")
	if grp.Distinct != 10 {
		t.Fatalf("grp distinct=%d want 10", grp.Distinct)
	}
	tag := st.Col("tag")
	if tag.Distinct != 3 {
		t.Fatalf("tag distinct=%d want 3", tag.Distinct)
	}
	if tag.NullCount == 0 {
		t.Fatal("tag should have NULLs")
	}
	if f := tag.NullFrac(st.RowCount); f <= 0 || f >= 1 {
		t.Fatalf("tag null frac %v", f)
	}
	if st.Col("AMT") == nil {
		t.Fatal("column lookup should be case-insensitive")
	}
}

func TestHistogramSelectivity(t *testing.T) {
	tab := testTable(5000, 4)
	h := tab.Stats().Col("id").Hist
	if h == nil {
		t.Fatal("histogram missing")
	}
	// id is uniform 0..4999: P(id <= 2499) ~ 0.5.
	got := h.SelectivityLE(storage.IntVal(2499))
	if got < 0.45 || got > 0.55 {
		t.Fatalf("SelectivityLE(2499)=%v want ~0.5", got)
	}
	if s := h.SelectivityLE(storage.IntVal(99999)); s != 1 {
		t.Fatalf("above max should be 1, got %v", s)
	}
	if s := h.SelectivityLE(storage.IntVal(-5)); s > 0.05 {
		t.Fatalf("below min should be ~0, got %v", s)
	}
	r := h.SelectivityRange(storage.IntVal(1000), storage.IntVal(1999), true, true)
	if r < 0.15 || r > 0.25 {
		t.Fatalf("range [1000,1999] sel=%v want ~0.2", r)
	}
}

func TestHistogramRangeMonotone(t *testing.T) {
	tab := testTable(2000, 5)
	h := tab.Stats().Col("id").Hist
	f := func(a, b int64) bool {
		lo, hi := a%2000, b%2000
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		s := h.SelectivityRange(storage.IntVal(lo), storage.IntVal(hi), true, true)
		wider := h.SelectivityRange(storage.IntVal(lo-10), storage.IntVal(hi+10), true, true)
		return s >= 0 && s <= 1 && wider >= s-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEqualValuesDontStraddle(t *testing.T) {
	// A column with two values: 0 (90%) and 1 (10%).
	sch := storage.NewSchema(storage.Column{Name: "v", Kind: storage.KindInt})
	rows := make([]storage.Row, 1000)
	for i := range rows {
		v := int64(0)
		if i >= 900 {
			v = 1
		}
		rows[i] = storage.Row{storage.IntVal(v)}
	}
	tab := &Table{Name: "two", Schema: sch, Rows: rows}
	h := tab.Stats().Col("v").Hist
	le0 := h.SelectivityLE(storage.IntVal(0))
	if le0 < 0.85 || le0 > 0.95 {
		t.Fatalf("P(v<=0)=%v want ~0.9", le0)
	}
}

func TestDistinctPrefix(t *testing.T) {
	tab := testTable(2000, 6)
	count := func(cols ...string) int64 {
		t.Helper()
		n, err := tab.DistinctPrefix(cols)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(); got != 1 {
		t.Fatalf("empty prefix=%d want 1", got)
	}
	grp := count("grp")
	if grp != 10 {
		t.Fatalf("|grp|=%d want 10", grp)
	}
	both := count("grp", "id")
	if both != 2000 {
		t.Fatalf("|grp,id|=%d want 2000 (id unique)", both)
	}
	// Cached second call must agree.
	if count("grp") != grp {
		t.Fatal("cache mismatch")
	}
	// Correlation: |A,B| can be far below |A|*|B|.
	if both > grp*2000 {
		t.Fatal("combination count exceeds product")
	}
}

// TestDistinctPrefixFloatsAndFrozenRows: float keys are exact (values a
// billionth apart are distinct, −0 and +0 one value), and the count describes
// the rows the statistics were built over, not rows written since.
func TestDistinctPrefixFloatsAndFrozenRows(t *testing.T) {
	sch := storage.NewSchema(storage.Column{Name: "f", Kind: storage.KindFloat})
	vals := []float64{1, 1 + 1e-12, 0, math.Copysign(0, -1), 3e12, 3e12 + 0.5}
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.FloatVal(v)}
	}
	tab := &Table{Name: "floats", Schema: sch, Rows: rows}
	tab.Stats()
	tab.Rows[1] = storage.Row{storage.FloatVal(1)} // after the build: not counted
	if n, err := tab.DistinctPrefix([]string{"F"}); err != nil || n != 5 {
		t.Fatalf("|f| = %d, %v; want 5", n, err)
	}
}

func TestDistinctPrefixUnknownColumnErrors(t *testing.T) {
	tab := testTable(10, 7)
	if n, err := tab.DistinctPrefix([]string{"grp", "ghost"}); err == nil {
		t.Fatalf("unknown column counted %d, want an error", n)
	}
}

func TestHeapPages(t *testing.T) {
	tab := testTable(5000, 8)
	if tab.HeapPages() < 2 {
		t.Fatal("5000 rows should need multiple pages")
	}
	empty := &Table{Name: "e", Schema: tab.Schema}
	if empty.HeapPages() != 0 {
		t.Fatal("empty heap should be 0 pages")
	}
}

func TestInvalidateStats(t *testing.T) {
	tab := testTable(100, 9)
	s1 := tab.Stats()
	tab.Rows = tab.Rows[:50]
	tab.InvalidateStats()
	s2 := tab.Stats()
	if s1 == s2 {
		t.Fatal("InvalidateStats should force rebuild")
	}
	if s2.RowCount != 50 {
		t.Fatalf("rebuilt RowCount=%d want 50", s2.RowCount)
	}
}

func TestFKTo(t *testing.T) {
	tab := testTable(10, 10)
	tab.FKs = []FK{{Col: "grp", RefTable: "groups", RefCol: "gid"}}
	if _, ok := tab.FKTo("GROUPS"); !ok {
		t.Fatal("FKTo should be case-insensitive")
	}
	if _, ok := tab.FKTo("other"); ok {
		t.Fatal("FKTo should miss unknown tables")
	}
}
