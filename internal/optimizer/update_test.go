package optimizer

import (
	"strings"
	"testing"

	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

func intVal(n int64) storage.Value { return storage.IntVal(n) }

// planOf plans a statement and fails the test on an empty plan.
func planOf(t *testing.T, cm *CostModel, s *workload.Statement, cfg *Configuration) *Plan {
	t.Helper()
	p := cm.Plan(s, cfg)
	if len(p.Paths) == 0 {
		t.Fatalf("empty plan for %s", s)
	}
	return p
}

func countKind(p *Plan, kind string) int {
	n := 0
	for _, ap := range p.Paths {
		if ap.Kind == kind {
			n++
		}
	}
	return n
}

// maintenanceOf returns the cost of the plan's one index-maintain path.
func maintenanceOf(t *testing.T, p *Plan) float64 {
	t.Helper()
	if countKind(p, "index-maintain") != 1 {
		t.Fatalf("want exactly one index-maintain path:\n%s", p)
	}
	for _, ap := range p.Paths {
		if ap.Kind == "index-maintain" {
			return ap.Cost
		}
	}
	return 0
}

func TestPlanUpdateTouchedColumnAwareness(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	upd := parseQ(t, "UPDATE lineitem SET l_discount = 0.01 WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9365")

	// An index that stores the touched column needs maintenance...
	touched := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_discount"}})
	// ...one that does not is untouched by the SET clause.
	untouched := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_partkey"}})

	pTouched := planOf(t, cm, upd, NewConfiguration(touched))
	if countKind(pTouched, "index-maintain") != 1 {
		t.Fatalf("touched index must be maintained:\n%s", pTouched)
	}
	pUntouched := planOf(t, cm, upd, NewConfiguration(untouched))
	if countKind(pUntouched, "index-maintain") != 0 {
		t.Fatalf("untouched index must not be maintained:\n%s", pUntouched)
	}
	base := planOf(t, cm, upd, NewConfiguration())
	if pTouched.Total <= base.Total {
		t.Fatalf("maintenance must cost something: with=%v base=%v", pTouched.Total, base.Total)
	}
}

func TestPlanUpdateUsesIndexForLookup(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	upd := parseQ(t, "UPDATE lineitem SET l_comment = 'x' WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9060")

	// A seekable index on the predicate column that does NOT store the
	// touched column: it speeds the qualifying-row lookup without incurring
	// any maintenance itself.
	seek := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}})
	base := planOf(t, cm, upd, NewConfiguration())
	with := planOf(t, cm, upd, NewConfiguration(seek))
	if with.Total >= base.Total {
		t.Fatalf("seekable index should cut the update's lookup cost: with=%v base=%v", with.Total, base.Total)
	}
	if !strings.Contains(with.Paths[0].Kind, "seek") {
		t.Fatalf("lookup should seek, got %s", with.Paths[0].Kind)
	}
	if countKind(with, "index-maintain") != 0 {
		t.Fatalf("index storing none of the SET columns must need no maintenance:\n%s", with)
	}
}

func TestPlanUpdatePageCostsMoreThanRow(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	upd := parseQ(t, "UPDATE lineitem SET l_discount = 0.02 WHERE l_quantity < 10")

	def := index.Def{Table: "lineitem", KeyCols: []string{"l_quantity"}, IncludeCols: []string{"l_discount"}}
	row := build(t, def.WithMethod(compress.Row))
	page := build(t, def.WithMethod(compress.Page))

	// Appendix A: α(PAGE) > α(ROW), so the same maintenance work costs more
	// CPU on the PAGE variant.
	mRow := maintenanceOf(t, cm.Plan(upd, NewConfiguration(row)))
	mPage := maintenanceOf(t, cm.Plan(upd, NewConfiguration(page)))
	if mPage <= mRow {
		t.Fatalf("PAGE maintenance (%v) must cost more than ROW (%v)", mPage, mRow)
	}
	// And the full statement plan reflects it.
	cRow := cm.Cost(upd, NewConfiguration(row))
	cPage := cm.Cost(upd, NewConfiguration(page))
	if cPage <= cRow {
		t.Fatalf("update under PAGE (%v) must cost more than under ROW (%v)", cPage, cRow)
	}
}

func TestPlanUpdateKeyColumnMovesEntries(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	idx := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_discount"}, IncludeCols: []string{"l_tax"}})
	// The same qualifying rows, updating the key column vs an include-only
	// column: moved entries are deleted and reinserted.
	keyUpd := parseQ(t, "UPDATE lineitem SET l_discount = 0.0 WHERE l_orderkey < 50")
	inclUpd := parseQ(t, "UPDATE lineitem SET l_tax = 0.0 WHERE l_orderkey < 50")
	p := planOf(t, cm, keyUpd, NewConfiguration(idx))
	if countKind(p, "index-maintain") != 1 {
		t.Fatalf("key update must maintain the index:\n%s", p)
	}
	moved := maintenanceOf(t, p)
	inPlace := maintenanceOf(t, planOf(t, cm, inclUpd, NewConfiguration(idx)))
	if moved <= inPlace {
		t.Fatalf("key-moving maintenance (%v) must cost more than in-place (%v)", moved, inPlace)
	}
}

func TestPlanDeleteMaintainsAllIndexes(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	del := parseQ(t, "DELETE FROM lineitem WHERE l_shipdate < DATE 8200")

	a := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_partkey"}})
	b := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_quantity"}})
	other := build(t, &index.Def{Table: "orders", KeyCols: []string{"o_orderdate"}})

	p := planOf(t, cm, del, NewConfiguration(a, b, other))
	if got := countKind(p, "index-maintain"); got != 2 {
		t.Fatalf("delete must maintain every index on its table (got %d):\n%s", got, p)
	}
	if countKind(p, "base-delete") != 1 {
		t.Fatalf("missing base-delete path:\n%s", p)
	}
	base := planOf(t, cm, del, NewConfiguration())
	if p.Total <= base.Total {
		t.Fatalf("index maintenance must make the delete dearer: with=%v base=%v", p.Total, base.Total)
	}
}

func TestPlanUpdateQualifyingRowsMatchSelectivity(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	li := d.MustTable("lineitem")
	upd := parseQ(t, "UPDATE lineitem SET l_tax = 0.0 WHERE l_shipdate BETWEEN DATE 9000 AND DATE 9365")
	p := planOf(t, cm, upd, NewConfiguration())
	want := float64(li.RowCount()) * CombinedSelectivity(li, upd.Update.Preds)
	if got := p.Paths[0].Rows; got != want {
		t.Fatalf("lookup rows=%v want %v", got, want)
	}
}

func TestPlanInsertSkipsClusteredByID(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	ins := parseQ(t, "INSERT INTO lineitem BULK 5000")

	clDef := &index.Def{Table: "lineitem", KeyCols: []string{"l_orderkey"}, Clustered: true}
	clA := build(t, clDef)
	// A distinct HypoIndex pointer wrapping the same definition — the shape a
	// persistent-configuration Replace (e.g. a re-estimated copy) produces.
	clB := &HypoIndex{Def: clA.Def, Rows: clA.Rows, Bytes: clA.Bytes, UncompressedBytes: clA.UncompressedBytes}

	single := cm.Plan(ins, NewConfiguration(clA))
	if got := countKind(single, "index-maintain"); got != 0 {
		t.Fatalf("clustered index is the base structure, not secondary maintenance:\n%s", single)
	}

	// Reaching the clustered index through a different pointer must not
	// double-count it as secondary maintenance.
	dup := cm.Plan(ins, NewConfiguration(clA, clB))
	if got := countKind(dup, "index-maintain"); got != 0 {
		t.Fatalf("same-ID clustered copy double-counted as secondary maintenance:\n%s", dup)
	}
	if dup.Total != single.Total {
		t.Fatalf("duplicate clustered pointer changed the insert cost: %v != %v", dup.Total, single.Total)
	}

	// Same protection on the update/delete maintenance loops.
	upd := parseQ(t, "UPDATE lineitem SET l_tax = 0.0 WHERE l_orderkey < 100")
	if got := countKind(cm.Plan(upd, NewConfiguration(clA, clB)), "index-maintain"); got != 0 {
		t.Fatalf("update maintenance double-counted the clustered copy (%d paths)", got)
	}
	del := parseQ(t, "DELETE FROM lineitem WHERE l_orderkey < 100")
	if got := countKind(cm.Plan(del, NewConfiguration(clA, clB)), "index-maintain"); got != 0 {
		t.Fatalf("delete maintenance double-counted the clustered copy (%d paths)", got)
	}
}

func TestPartialIndexFilterMigration(t *testing.T) {
	d := testDB(t)
	cm := NewCostModel(d)
	filter := workload.Predicate{Col: "l_quantity", Op: workload.OpLt, Lo: intVal(10)}
	partial := build(t, &index.Def{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Where: []workload.Predicate{filter}})

	// Touching the filter column: every qualifying row may migrate.
	migrate := parseQ(t, "UPDATE lineitem SET l_quantity = 1 WHERE l_shipdate < DATE 9000")
	hd := cm.memo.Load().intern(partial)
	aff, moves, ok := updateAffected(migrate.Update, hd, 1000)
	if !ok || !moves || aff != 1000 {
		t.Fatalf("filter-column update: affected=%v moves=%v ok=%v", aff, moves, ok)
	}
	// Touching a stored column only: just the rows already inside the index.
	stored := parseQ(t, "UPDATE lineitem SET l_shipdate = DATE 9100 WHERE l_orderkey < 100")
	aff, _, ok = updateAffected(stored.Update, hd, 1000)
	if !ok || aff >= 1000 || aff <= 0 {
		t.Fatalf("stored-column update should scale by the filter selectivity: affected=%v ok=%v", aff, ok)
	}
	// Touching neither: no maintenance.
	neither := parseQ(t, "UPDATE lineitem SET l_tax = 0.0 WHERE l_orderkey < 100")
	if _, _, ok := updateAffected(neither.Update, hd, 1000); ok {
		t.Fatal("unrelated update must not maintain the partial index")
	}
}
