package exec

import (
	"bytes"
	"strings"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// assertResultsIdentical compares two results byte-for-byte: same column
// names, same rows under the canonical row encoding.
func assertResultsIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Schema.Columns) != len(want.Schema.Columns) {
		t.Fatalf("%s: schema arity %d vs %d", label, len(got.Schema.Columns), len(want.Schema.Columns))
	}
	for i := range got.Schema.Columns {
		if !strings.EqualFold(got.Schema.Columns[i].Name, want.Schema.Columns[i].Name) {
			t.Fatalf("%s: column %d named %q vs %q", label, i, got.Schema.Columns[i].Name, want.Schema.Columns[i].Name)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g := storage.EncodeRow(got.Schema, got.Rows[i], nil)
		w := storage.EncodeRow(want.Schema, want.Rows[i], nil)
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: row %d differs:\n got %v\nwant %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// tpchDesign is a representative physical design covering every access-path
// shape: a mixed per-column clustered index (PAGE default with GDICT/RLE
// column overrides), a mixed ROW secondary, plain ROW/NONE secondaries
// (covering and not), plus a partial and an MV definition the store must
// tolerate. The mixed members route the differential sweep — including its
// UPDATE/DELETE invalidation and rebuild — through the column-major design
// codec.
func tpchDesign() []*index.Def {
	return []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page,
			ColMethods: map[string]compress.Method{"l_shipmode": compress.GlobalDict, "l_linestatus": compress.RLE}},
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.Row,
			ColMethods: map[string]compress.Method{"l_extendedprice": compress.GlobalDict}},
		{Table: "lineitem", KeyCols: []string{"l_shipmode"}, Method: compress.Row},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, IncludeCols: []string{"o_totalprice"}, Method: compress.None},
		{Table: "lineitem", KeyCols: []string{"l_discount"},
			Where: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(5)}}, Method: compress.Row},
	}
}

// TestStoreMatchesOracleTPCH runs every built-in TPC-H statement (the
// update-capable variant, so UPDATE/DELETE are covered) against the
// segment-backed store and the plain-row oracle on twin databases, asserting
// byte-identical query results and identical write counts — with writes
// applied in workload order so staleness/rebuild is exercised too.
func TestStoreMatchesOracleTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	cfg := datagen.TPCHConfig{LineitemRows: 4000, Seed: 11}
	oracleDB := datagen.NewTPCH(cfg)
	storeDB := datagen.NewTPCH(cfg)
	for _, defs := range [][]*index.Def{nil, tpchDesign()} {
		st, err := NewStore(storeDB, defs)
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, oracleDB, st, workloads.MustTPCHWithUpdates())
		// Twin databases must end in the same state; regenerate for the next
		// design.
		oracleDB = datagen.NewTPCH(cfg)
		storeDB = datagen.NewTPCH(cfg)
	}
}

func TestStoreMatchesOracleSales(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	cfg := datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 7}
	oracleDB := datagen.NewSales(cfg)
	storeDB := datagen.NewSales(cfg)
	defs := []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row},
		{Table: "sales", KeyCols: []string{"qty"}, Method: compress.Page},
		{Table: "sales", KeyCols: []string{"state"}, IncludeCols: []string{"price", "channel"}, Method: compress.Row},
	}
	st, err := NewStore(storeDB, defs)
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, oracleDB, st, workloads.MustSalesWithUpdates(7))
}

// runDifferential executes the workload statement by statement against the
// oracle database and the store, in order.
func runDifferential(t *testing.T, oracleDB *catalog.Database, st *Store, wl *workload.Workload) {
	t.Helper()
	for _, s := range wl.Statements {
		switch {
		case s.Query != nil:
			want, err := Run(oracleDB, s.Query)
			if err != nil {
				t.Fatalf("%s: oracle: %v", s.Label, err)
			}
			got, err := st.RunQuery(s.Query)
			if err != nil {
				t.Fatalf("%s: store: %v", s.Label, err)
			}
			assertResultsIdentical(t, s.Label, got, want)
			if len(got.Rows) > 0 && got.IO.PageReads == 0 {
				t.Fatalf("%s: produced rows with zero page reads", s.Label)
			}
		case s.Update != nil:
			want, err := RunUpdate(oracleDB, s.Update)
			if err != nil {
				t.Fatalf("%s: oracle: %v", s.Label, err)
			}
			got, _, err := st.RunUpdate(s.Update)
			if err != nil {
				t.Fatalf("%s: store: %v", s.Label, err)
			}
			if got != want {
				t.Fatalf("%s: updated %d rows, oracle %d", s.Label, got, want)
			}
		case s.Delete != nil:
			want, err := RunDelete(oracleDB, s.Delete)
			if err != nil {
				t.Fatalf("%s: oracle: %v", s.Label, err)
			}
			got, _, err := st.RunDelete(s.Delete)
			if err != nil {
				t.Fatalf("%s: store: %v", s.Label, err)
			}
			if got != want {
				t.Fatalf("%s: deleted %d rows, oracle %d", s.Label, got, want)
			}
		}
	}
}

func TestStoreSeekReadsFewerPages(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 3})
	scanStore, err := NewStore(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	seekStore, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Row},
	})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, "SELECT l_orderkey FROM lineitem WHERE l_shipdate BETWEEN 9000 AND 9060")
	full, err := scanStore.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	seek, err := seekStore.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "seek-vs-scan", seek, full)
	if seek.IO.PageReads >= full.IO.PageReads/2 {
		t.Fatalf("seek read %d pages, scan %d — expected a narrow range to read far fewer",
			seek.IO.PageReads, full.IO.PageReads)
	}
	found := false
	for _, p := range seek.Paths {
		if strings.Contains(p, "seek") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a seek path, got %v", seek.Paths)
	}
}

func TestStoreSecondarySeekWithLookups(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 3})
	st, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_orderkey"}, Method: compress.Row},
	})
	if err != nil {
		t.Fatal(err)
	}
	// SELECT * needs every column, so the l_orderkey index cannot cover and
	// must do RID lookups into the heap; the key is selective enough that
	// the seek beats a scan.
	li := db.MustTable("lineitem")
	someKey := li.Rows[len(li.Rows)/2][li.Schema.ColIndex("l_orderkey")].Int
	query := &workload.Query{
		Tables: []string{"lineitem"},
		Preds:  []workload.Predicate{{Col: "l_orderkey", Op: workload.OpEq, Lo: storage.IntVal(someKey)}},
	}
	got, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(db, query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "lookup", got, want)
	hasLookup := false
	for _, p := range got.Paths {
		if strings.Contains(p, "lookup") {
			hasLookup = true
		}
	}
	if !hasLookup {
		t.Fatalf("expected a seek+lookup path, got %v", got.Paths)
	}
}

func TestStoreCoveringSecondaryServesWithoutLookups(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 6000, Seed: 3})
	st, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_extendedprice"}, Method: compress.Page},
	})
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity = 7 GROUP BY l_quantity")
	got, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(db, query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "covering", got, want)
	for _, p := range got.Paths {
		if strings.Contains(p, "lookup") {
			t.Fatalf("covering index should not look up the heap: %v", got.Paths)
		}
	}
	if base := st.tables["lineitem"]; len(base) == 0 || base[0].hypo != nil {
		t.Fatal("no heap handle")
	}
	full, err := NewStore(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := full.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if got.IO.PageReads >= scan.IO.PageReads {
		t.Fatalf("covering seek (%d reads) should beat the scan (%d)", got.IO.PageReads, scan.IO.PageReads)
	}
}

func TestStoreIODeterministic(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 5})
	st, err := NewStore(db, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, "SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipdate >= 9000 GROUP BY l_shipmode")
	a, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if a.IO != b.IO {
		t.Fatalf("IO not deterministic: %+v vs %+v", a.IO, b.IO)
	}
	if a.IO.PagesDecoded > a.IO.PageReads {
		t.Fatalf("decoded more pages than read: %+v", a.IO)
	}
	if a.IO.TuplesDecoded == 0 {
		t.Fatalf("no tuples decoded: %+v", a.IO)
	}
}

// TestStoreStalenessAfterWrite pins the rebuild path: a write invalidates
// the table's segments and subsequent queries see the new data.
func TestStoreStalenessAfterWrite(t *testing.T) {
	cfg := datagen.TPCHConfig{LineitemRows: 2000, Seed: 13}
	oracleDB := datagen.NewTPCH(cfg)
	storeDB := datagen.NewTPCH(cfg)
	st, err := NewStore(storeDB, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	query := q(t, "SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 10")
	before, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	del := &workload.Delete{Table: "lineitem", Preds: []workload.Predicate{
		{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)},
	}}
	wantN, err := RunDelete(oracleDB, del)
	if err != nil {
		t.Fatal(err)
	}
	gotN, _, err := st.RunDelete(del)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || gotN == 0 {
		t.Fatalf("deleted %d, oracle %d", gotN, wantN)
	}
	after, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	// All qualifying rows are gone: the global aggregate counts none.
	if len(before.Rows) != 1 || before.Rows[0][0].Int == 0 || len(after.Rows) != 1 || after.Rows[0][0].Int != 0 {
		t.Fatalf("staleness: before=%v after=%v", before.Rows, after.Rows)
	}
	wantAfter, err := Run(oracleDB, query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "after-delete", after, wantAfter)
}

// TestNewStoreValidatesDesignVector: segments build lazily, so NewStore must
// reject a bad per-column design up front — an override with a method no
// codec materializes would otherwise fail only at the structure's first
// build, and one on a column the table lacks would never be noticed.
func TestNewStoreValidatesDesignVector(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 500, Seed: 3})
	for _, tc := range []struct {
		name string
		def  *index.Def
		want string
	}{
		{"unknown method byte",
			&index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page,
				ColMethods: map[string]compress.Method{"l_shipmode": compress.Method(200)}},
			"no materializing codec"},
		{"unknown column",
			&index.Def{Table: "lineitem", KeyCols: []string{"l_quantity"}, Method: compress.Row,
				ColMethods: map[string]compress.Method{"l_nosuch": compress.RLE}},
			`unknown column "l_nosuch"`},
	} {
		if _, err := NewStore(db, []*index.Def{tc.def}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewStore returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// The RID a secondary carries is a leaf column like any other.
	if _, err := NewStore(db, []*index.Def{{Table: "lineitem", KeyCols: []string{"l_quantity"}, Method: compress.Row,
		ColMethods: map[string]compress.Method{"__rid": compress.RLE}}}); err != nil {
		t.Errorf("an override on __rid was rejected: %v", err)
	}
}
