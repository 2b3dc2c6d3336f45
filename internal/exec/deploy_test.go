package exec

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workloads"
)

// salesMixedDesign is a Sales design of per-column vectors on the fact table
// plus ordered structures on two dimensions that no Sales statement seeks —
// the structures a lazy build never built.
func salesMixedDesign() []*index.Def {
	return []*index.Def{
		{Table: "sales", KeyCols: []string{"orderdate"}, Clustered: true, Method: compress.Row,
			ColMethods: map[string]compress.Method{"state": compress.GlobalDict, "channel": compress.RLE}},
		{Table: "sales", KeyCols: []string{"state", "qty"}, IncludeCols: []string{"price"}, Method: compress.Page,
			ColMethods: map[string]compress.Method{"price": compress.GlobalDict}},
		{Table: "customers", KeyCols: []string{"custstate"}, IncludeCols: []string{"loyalty"}, Method: compress.Row},
		{Table: "products", KeyCols: []string{"category", "brand"}, Method: compress.RLE},
	}
}

// assertMatchesStandalone checks every current segment of the store against
// a standalone BuildSegmentIndex of its definition over the same rows: page
// count, per-page row counts, page payloads byte for byte, low keys and leaf
// statistics. A segment an UPDATE overlaid keeps the pages of its build, so
// for it the check is that a scan, merging the overlay, reads the rows the
// standalone build holds.
func assertMatchesStandalone(t *testing.T, label string, st *Store) {
	t.Helper()
	for _, h := range st.all {
		if h.si == nil || h.stale {
			continue
		}
		want, err := index.BuildSegmentIndex(st.db, h.def)
		if err != nil {
			t.Fatalf("%s: %s: standalone build: %v", label, h.id, err)
		}
		if h.si.OverlaidRows() > 0 {
			if g, w := scanRowSet(t, h.si), scanRowSet(t, want); !slices.Equal(g, w) {
				t.Fatalf("%s: %s: the overlaid segment reads other rows than the standalone build", label, h.id)
			}
			continue
		}
		got := h.si.Seg
		if got.NumPages() != want.Seg.NumPages() {
			t.Fatalf("%s: %s: %d pages, standalone %d", label, h.id, got.NumPages(), want.Seg.NumPages())
		}
		for p := 0; p < got.NumPages(); p++ {
			if got.PageRows(p) != want.Seg.PageRows(p) {
				t.Fatalf("%s: %s: page %d holds %d rows, standalone %d", label, h.id, p, got.PageRows(p), want.Seg.PageRows(p))
			}
			g, release, err := got.FetchPage(p, nil)
			if err != nil {
				t.Fatalf("%s: %s: page %d: %v", label, h.id, p, err)
			}
			w, wrelease, err := want.Seg.FetchPage(p, nil)
			if err != nil {
				release()
				t.Fatalf("%s: %s: standalone page %d: %v", label, h.id, p, err)
			}
			same := bytes.Equal(g, w)
			release()
			wrelease()
			if !same {
				t.Fatalf("%s: %s: page %d payload differs from the standalone build", label, h.id, p)
			}
		}
		// Low keys and leaf statistics: everything but the page store itself.
		gs, ws := *h.si, *want
		gs.Seg, ws.Seg = nil, nil
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: %s: low keys or leaf statistics differ from the standalone build", label, h.id)
		}
	}
}

// scanRowSet reads every leaf row of a segment index through a full cursor
// and returns their encodings, sorted.
func scanRowSet(t *testing.T, si *index.SegmentIndex) []string {
	t.Helper()
	var out []string
	s := si.Schema()
	c := si.ScanCursor(&storage.DecodeSpec{Needed: s.AllOrdinals()}, &storage.IOStats{})
	for {
		b, err := c.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			out = append(out, string(storage.EncodeRow(s, r, nil)))
		}
	}
	slices.Sort(out)
	return out
}

// TestDeployMatchesStandaloneBuilds: the deploy fan-out shares key ranks
// between concurrent builds and schedules them heaviest first, and none of
// that may show in a segment — after the first statement, after an UPDATE
// has overlaid structures, and after a DELETE has made them stale and a read
// rebuilt them, in memory and disk-backed. Under -race it is the check of the shared rank
// cache.
func TestDeployMatchesStandaloneBuilds(t *testing.T) {
	for _, c := range []struct {
		name   string
		mkdb   func() *catalog.Database
		defs   []*index.Def
		read   string // seeks every ordered structure on the written table
		writes []string
	}{
		{"tpch", freshDB, tpchDesign(),
			"SELECT l_quantity FROM lineitem WHERE l_shipdate >= DATE 9000 AND l_quantity <= 10 AND l_shipmode = 'AIR'",
			[]string{
				"UPDATE lineitem SET l_extendedprice = 1.0 WHERE l_shipdate BETWEEN DATE 9700 AND DATE 9790",
				"DELETE FROM lineitem WHERE l_quantity <= 5",
			}},
		{"sales", func() *catalog.Database {
			return datagen.NewSales(datagen.SalesConfig{FactRows: 3000, Zipf: 0.8, Seed: 7})
		}, salesMixedDesign(),
			"SELECT qty FROM sales WHERE orderdate >= DATE 0 AND state = 'CA'",
			[]string{
				"UPDATE sales SET price = 1.0 WHERE qty >= 8",
				"DELETE FROM sales WHERE qty <= 2",
			}},
	} {
		for _, disk := range []bool{false, true} {
			label := c.name + map[bool]string{false: " in memory", true: " disk-backed"}[disk]
			st, err := NewStore(c.mkdb(), c.defs)
			if err != nil {
				t.Fatal(err)
			}
			if disk {
				st.SetDiskBacked(t.TempDir(), bufferpool.New(256<<10))
			}
			if _, err := st.RunQuery(q(t, c.read)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatchesStandalone(t, label+", deployed", st)
			for _, sql := range c.writes {
				s := stmt(t, sql)
				var n int64
				if s.Update != nil {
					n, _, err = st.RunUpdate(s.Update)
				} else {
					n, _, err = st.RunDelete(s.Delete)
				}
				if err != nil || n == 0 {
					t.Fatalf("%s: %s: %d rows, %v", label, sql, n, err)
				}
				if _, err := st.RunQuery(q(t, c.read)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesStandalone(t, label+", after "+sql, st)
			}
			st.Close()
		}
	}
}

// TestFirstStatementDeploysEveryStructure: a statement that reads one small
// table still deploys every structure of every table, and read-only
// statements after it rebuild nothing.
func TestFirstStatementDeploysEveryStructure(t *testing.T) {
	db := freshDB()
	st, err := NewStore(db, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	// Seven heaps, lineitem's clustered structure in place of its heap, and
	// three secondaries; the partial definition is not an access path.
	if want := len(db.Tables()) + 3; len(st.all) != want {
		t.Fatalf("store has %d handles, want %d", len(st.all), want)
	}
	for _, h := range st.all {
		if h.id == "heap:lineitem" {
			t.Fatal("the store has a heap handle for lineitem, which has a clustered structure")
		}
	}
	if _, err := st.RunQuery(q(t, "SELECT COUNT(*) FROM nation")); err != nil {
		t.Fatal(err)
	}
	deployed := make(map[*segHandle]*index.SegmentIndex)
	for _, h := range st.all {
		if h.si == nil || h.stale {
			t.Errorf("%s was not deployed by the first statement", h.id)
		}
		deployed[h] = h.si
	}
	for _, s := range workloads.MustTPCH().Statements {
		if s.Query == nil {
			continue
		}
		if _, err := st.RunQuery(s.Query); err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
	}
	for _, h := range st.all {
		if h.si != deployed[h] {
			t.Errorf("%s was rebuilt by a read-only statement", h.id)
		}
	}
}

// TestRepeatedKeyColumnIsAnError: a key column named twice (in any case) is
// rejected up front by NewStore and by the build itself, never a panic
// inside the build fan-out.
func TestRepeatedKeyColumnIsAnError(t *testing.T) {
	db := catalog.NewDatabase("dup")
	db.AddTable(&catalog.Table{Name: "t",
		Schema: storage.NewSchema(storage.Column{Name: "a", Kind: storage.KindInt}, storage.Column{Name: "b", Kind: storage.KindInt}),
		Rows:   []storage.Row{{storage.IntVal(2), storage.IntVal(1)}, {storage.IntVal(1), storage.IntVal(2)}},
	})
	for _, d := range []*index.Def{
		{Table: "t", KeyCols: []string{"a", "A", "a"}},
		{Table: "t", KeyCols: []string{"b", "a", "B"}, Clustered: true},
	} {
		if _, err := NewStore(db, []*index.Def{d}); err == nil || !strings.Contains(err.Error(), "repeats key column") {
			t.Errorf("NewStore(%s) = %v, want a repeated-key-column error", d, err)
		}
		if _, err := index.BuildSegmentIndex(db, d); err == nil || !strings.Contains(err.Error(), "repeats key column") {
			t.Errorf("BuildSegmentIndex(%s) = %v, want a repeated-key-column error", d, err)
		}
	}
}
