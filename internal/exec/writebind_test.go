package exec

import (
	"fmt"
	"slices"
	"testing"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
)

// TestWritesBindLikeReads: an UPDATE's or DELETE's WHERE is bound to its
// table by the rule a query's predicates are (index.NewRowFilter), in the
// oracle and in the store alike. An unknown column fails the statement and
// changes nothing — no row of the table, no structure of the store — where
// it once matched no row; a qualified and a bare reference to the same
// column select the same rows; and CountMatching, the ground truth the cost
// model's write estimates are checked against, counts what COUNT(*) of the
// same WHERE returns through both executors.
func TestWritesBindLikeReads(t *testing.T) {
	defs := []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.Page},
		{Table: "lineitem", KeyCols: []string{"l_partkey"}, IncludeCols: []string{"l_discount"}, Method: compress.Row},
		{Table: "orders", KeyCols: []string{"o_orderdate"}, Method: compress.Page},
	}
	unknown := []string{
		"UPDATE lineitem SET l_discount = 0.5 WHERE l_ghost <= 5",
		// A known predicate beside the unknown one would match rows.
		"UPDATE lineitem SET l_discount = 0.5 WHERE l_quantity <= 50 AND lineitem.l_ghost = 1",
		"DELETE FROM lineitem WHERE l_ghost = 1",
		"DELETE FROM lineitem WHERE l_quantity <= 50 AND l_ghost = 1",
	}
	for _, mode := range []string{"oracle", "store", "disk store"} {
		for _, sql := range unknown {
			label := fmt.Sprintf("%s: %s", mode, sql)
			db := freshDB()
			li := db.MustTable("lineitem")
			var st *Store
			if mode != "oracle" {
				var err error
				if st, err = NewStore(db, defs); err != nil {
					t.Fatal(err)
				}
				if mode == "disk store" {
					st.SetDiskBacked(t.TempDir(), bufferpool.New(256<<10))
				}
				defer st.Close()
				// Deploy, and give the secondary index an overlay, so there
				// is built state to leave alone.
				if _, _, err := st.RunUpdate(stmt(t, "UPDATE lineitem SET l_discount = 0.25 WHERE l_quantity <= 3").Update); err != nil {
					t.Fatal(err)
				}
			}
			rows := deepCopyRows(li.Rows)
			structs := handleStates(st)
			if st != nil && !slices.ContainsFunc(structs, func(h handleState) bool { return h.overlaid > 0 }) {
				t.Fatalf("%s: setup left no structure with an overlay", label)
			}
			s := stmt(t, sql)
			var err error
			switch {
			case st == nil && s.Update != nil:
				_, err = RunUpdate(db, s.Update)
			case st == nil:
				_, err = RunDelete(db, s.Delete)
			case s.Update != nil:
				_, _, err = st.RunUpdate(s.Update)
			default:
				_, _, err = st.RunDelete(s.Delete)
			}
			if err == nil {
				t.Fatalf("%s: no error for an unknown WHERE column", label)
			}
			if !slices.EqualFunc(li.Rows, rows, slices.Equal) {
				t.Fatalf("%s: the failed statement changed the table's rows", label)
			}
			if got := handleStates(st); !slices.Equal(got, structs) {
				t.Fatalf("%s: the failed statement changed the store's structures: %v, was %v", label, got, structs)
			}
		}
	}

	// Qualified and bare references bind to the same column.
	var rids [2][]int64
	for i, col := range []string{"lineitem.l_shipdate", "l_shipdate"} {
		u := stmt(t, "UPDATE lineitem SET l_returnflag = 'R' WHERE "+col+" BETWEEN DATE 9800 AND DATE 9890").Update
		var err error
		if rids[i], err = updateRows(freshDB(), u); err != nil {
			t.Fatal(err)
		}
	}
	if len(rids[0]) == 0 || !slices.Equal(rids[0], rids[1]) {
		t.Fatalf("qualified WHERE updated %d rows, bare %d, or not the same ones", len(rids[0]), len(rids[1]))
	}

	// CountMatching is COUNT(*) of the same WHERE, through both executors.
	db := testDB()
	st, err := NewStore(db, defs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, where := range []string{
		"l_shipdate BETWEEN DATE 9800 AND DATE 9890",
		"lineitem.l_quantity <= 20 AND l_discount >= 0.05",
		"l_returnflag <> 'R' AND lineitem.l_shipdate < DATE 9000",
		"l_quantity > 60",
	} {
		qq := q(t, "SELECT COUNT(*) FROM lineitem WHERE "+where)
		n, err := CountMatching(db, "lineitem", qq.Preds)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Run(db, qq)
		if err != nil {
			t.Fatal(err)
		}
		store, err := st.RunQuery(qq)
		if err != nil {
			t.Fatal(err)
		}
		for label, res := range map[string]*Result{"oracle": oracle, "store": store} {
			if len(res.Rows) != 1 {
				t.Fatalf("WHERE %s: COUNT(*) through the %s returned %d rows, want 1", where, label, len(res.Rows))
			}
			if got := res.Rows[0][0].Int; got != n {
				t.Errorf("WHERE %s: CountMatching %d, COUNT(*) through the %s %d", where, n, label, got)
			}
		}
	}
}

func deepCopyRows(rows []storage.Row) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// handleState is what a write can change about one built structure.
type handleState struct {
	id       string
	si       *index.SegmentIndex
	stale    bool
	overlaid int
}

// handleStates snapshots every structure of a store (none for a nil one).
func handleStates(st *Store) []handleState {
	if st == nil {
		return nil
	}
	var out []handleState
	for _, table := range []string{"lineitem", "orders"} {
		for _, h := range st.tables[table] {
			hs := handleState{id: h.id, si: h.si, stale: h.stale}
			if h.si != nil {
				hs.overlaid = h.si.OverlaidRows()
			}
			out = append(out, hs)
		}
	}
	return out
}
